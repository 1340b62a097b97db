#include "lang/lexer.h"

#include <utility>

namespace mphls {

std::string_view tokName(Tok t) {
  switch (t) {
    case Tok::End: return "<eof>";
    case Tok::Ident: return "identifier";
    case Tok::Number: return "number";
    case Tok::KwProc: return "'proc'";
    case Tok::KwIn: return "'in'";
    case Tok::KwOut: return "'out'";
    case Tok::KwVar: return "'var'";
    case Tok::KwIf: return "'if'";
    case Tok::KwElse: return "'else'";
    case Tok::KwWhile: return "'while'";
    case Tok::KwDo: return "'do'";
    case Tok::KwUntil: return "'until'";
    case Tok::KwInt: return "'int'";
    case Tok::KwUint: return "'uint'";
    case Tok::KwBool: return "'bool'";
    case Tok::KwTrue: return "'true'";
    case Tok::KwFalse: return "'false'";
    case Tok::KwTrunc: return "'trunc'";
    case Tok::KwZext: return "'zext'";
    case Tok::KwSext: return "'sext'";
    case Tok::LParen: return "'('";
    case Tok::RParen: return "')'";
    case Tok::LBrace: return "'{'";
    case Tok::RBrace: return "'}'";
    case Tok::Comma: return "','";
    case Tok::Semi: return "';'";
    case Tok::Colon: return "':'";
    case Tok::Question: return "'?'";
    case Tok::Assign: return "'='";
    case Tok::Plus: return "'+'";
    case Tok::Minus: return "'-'";
    case Tok::Star: return "'*'";
    case Tok::Slash: return "'/'";
    case Tok::Percent: return "'%'";
    case Tok::Amp: return "'&'";
    case Tok::Pipe: return "'|'";
    case Tok::Caret: return "'^'";
    case Tok::Tilde: return "'~'";
    case Tok::Bang: return "'!'";
    case Tok::AmpAmp: return "'&&'";
    case Tok::PipePipe: return "'||'";
    case Tok::Shl: return "'<<'";
    case Tok::Shr: return "'>>'";
    case Tok::Eq: return "'=='";
    case Tok::Ne: return "'!='";
    case Tok::Lt: return "'<'";
    case Tok::Le: return "'<='";
    case Tok::Gt: return "'>'";
    case Tok::Ge: return "'>='";
  }
  return "?";
}

namespace {

// Character classes of the "C" locale (the program never changes it),
// without the locale lookup of <cctype>.
constexpr bool isDigit(char c) { return c >= '0' && c <= '9'; }
constexpr bool isAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
constexpr bool isIdentChar(char c) {
  return isAlpha(c) || isDigit(c) || c == '_';
}
constexpr bool isSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}
/// Value of a digit in base `base` (2, 10 or 16), or -1.
constexpr int digitValue(char c, int base) {
  int d = -1;
  if (isDigit(c)) d = c - '0';
  else if (c >= 'a' && c <= 'f') d = 10 + (c - 'a');
  else if (c >= 'A' && c <= 'F') d = 10 + (c - 'A');
  return d < base ? d : -1;
}

/// The keyword spelled `s`, or Tok::Ident.
Tok keywordOrIdent(std::string_view s) {
  static constexpr std::pair<std::string_view, Tok> kKeywords[] = {
      {"proc", Tok::KwProc},   {"in", Tok::KwIn},       {"out", Tok::KwOut},
      {"var", Tok::KwVar},     {"if", Tok::KwIf},       {"else", Tok::KwElse},
      {"while", Tok::KwWhile}, {"do", Tok::KwDo},       {"until", Tok::KwUntil},
      {"int", Tok::KwInt},     {"uint", Tok::KwUint},   {"bool", Tok::KwBool},
      {"true", Tok::KwTrue},   {"false", Tok::KwFalse},
      {"trunc", Tok::KwTrunc}, {"zext", Tok::KwZext},   {"sext", Tok::KwSext},
  };
  for (const auto& [kw, tok] : kKeywords)
    if (kw == s) return tok;
  return Tok::Ident;
}

}  // namespace

char Lexer::peek(int ahead) const {
  std::size_t p = pos_ + static_cast<std::size_t>(ahead);
  return p < src_.size() ? src_[p] : '\0';
}

char Lexer::advance() {
  char c = src_[pos_++];
  if (c == '\n') {
    ++line_;
    col_ = 1;
  } else {
    ++col_;
  }
  return c;
}

std::string_view Lexer::take(std::size_t n) {
  std::string_view s = src_.substr(pos_, n);
  pos_ += n;
  col_ += static_cast<int>(n);
  return s;
}

void Lexer::skipTrivia() {
  while (!atEnd()) {
    char c = peek();
    if (isSpace(c)) {
      advance();
    } else if (c == '#' || (c == '/' && peek(1) == '/')) {
      std::size_t eol = src_.find('\n', pos_);
      take((eol == std::string_view::npos ? src_.size() : eol) - pos_);
    } else if (c == '/' && peek(1) == '*') {
      SourceLoc start = here();
      advance();
      advance();
      while (!atEnd() && !(peek() == '*' && peek(1) == '/')) advance();
      if (atEnd()) {
        diags_.error(start, "unterminated block comment");
        return;
      }
      advance();
      advance();
    } else {
      return;
    }
  }
}

Token Lexer::lexNumber() {
  Token t;
  t.kind = Tok::Number;
  t.loc = here();
  int base = 10;
  const char* what = nullptr;
  if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
    base = 16;
    what = "hex literal needs digits";
  } else if (peek() == '0' && (peek(1) == 'b' || peek(1) == 'B')) {
    base = 2;
    what = "binary literal needs digits";
  }
  if (base != 10) take(2);
  std::size_t n = 0;
  while (pos_ + n < src_.size() && digitValue(src_[pos_ + n], base) >= 0) ++n;
  if (n == 0 && what) diags_.error(t.loc, what);
  const auto b = static_cast<std::uint64_t>(base);
  std::uint64_t v = 0;
  bool fits = true;
  for (char c : take(n)) {
    const auto d = static_cast<std::uint64_t>(digitValue(c, base));
    if (v > (~0ULL - d) / b) fits = false;
    v = v * b + d;
  }
  if (!fits) diags_.error(t.loc, "integer literal does not fit in 64 bits");
  t.number = v;
  return t;
}

Token Lexer::lexIdent() {
  Token t;
  t.loc = here();
  std::size_t n = 0;
  while (pos_ + n < src_.size() && isIdentChar(src_[pos_ + n])) ++n;
  const std::string_view s = take(n);
  t.kind = keywordOrIdent(s);
  if (t.kind == Tok::Ident) t.text = s;
  return t;
}

std::vector<Token> Lexer::tokenize() {
  std::vector<Token> out;
  // BDL runs 2.3-3.2 bytes per token (generated chains, trees, loops and
  // fuzz programs), so one allocation of a token per two bytes never
  // regrows on such input; the pages past the last token stay untouched.
  out.reserve(src_.size() / 2 + 1);
  for (;;) {
    skipTrivia();
    if (atEnd()) break;
    SourceLoc loc = here();
    char c = peek();
    if (isDigit(c)) {
      out.push_back(lexNumber());
      continue;
    }
    if (isAlpha(c) || c == '_') {
      out.push_back(lexIdent());
      continue;
    }
    advance();
    Token t;
    t.loc = loc;
    auto two = [&](char second, Tok ifTwo, Tok ifOne) {
      if (peek() == second) {
        advance();
        t.kind = ifTwo;
      } else {
        t.kind = ifOne;
      }
    };
    switch (c) {
      case '(': t.kind = Tok::LParen; break;
      case ')': t.kind = Tok::RParen; break;
      case '{': t.kind = Tok::LBrace; break;
      case '}': t.kind = Tok::RBrace; break;
      case ',': t.kind = Tok::Comma; break;
      case ';': t.kind = Tok::Semi; break;
      case ':': t.kind = Tok::Colon; break;
      case '?': t.kind = Tok::Question; break;
      case '+': t.kind = Tok::Plus; break;
      case '-': t.kind = Tok::Minus; break;
      case '*': t.kind = Tok::Star; break;
      case '/': t.kind = Tok::Slash; break;
      case '%': t.kind = Tok::Percent; break;
      case '^': t.kind = Tok::Caret; break;
      case '~': t.kind = Tok::Tilde; break;
      case '&': two('&', Tok::AmpAmp, Tok::Amp); break;
      case '|': two('|', Tok::PipePipe, Tok::Pipe); break;
      case '=': two('=', Tok::Eq, Tok::Assign); break;
      case '!': two('=', Tok::Ne, Tok::Bang); break;
      case '<':
        if (peek() == '<') {
          advance();
          t.kind = Tok::Shl;
        } else {
          two('=', Tok::Le, Tok::Lt);
        }
        break;
      case '>':
        if (peek() == '>') {
          advance();
          t.kind = Tok::Shr;
        } else {
          two('=', Tok::Ge, Tok::Gt);
        }
        break;
      default:
        diags_.error(loc, std::string("unexpected character '") + c + "'");
        continue;
    }
    out.push_back(t);
  }
  Token end;
  end.kind = Tok::End;
  end.loc = here();
  out.push_back(end);
  return out;
}

}  // namespace mphls
