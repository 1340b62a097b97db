// Hand-written lexer for BDL. Supports decimal / hex (0x) / binary (0b)
// literals (rejected when they do not fit in 64 bits), '#' and '//' line
// comments, and '/* */' block comments. Identifiers and numbers are
// scanned by index; an identifier token views its spelling in the source.
#pragma once

#include <string_view>
#include <vector>

#include "common/diag.h"
#include "lang/token.h"

namespace mphls {

class Lexer {
 public:
  /// The lexer reads `source` in place: it must outlive tokenize().
  Lexer(std::string_view source, DiagEngine& diags)
      : src_(source), diags_(diags) {}

  /// Tokenize the whole input; always ends with a Tok::End token.
  [[nodiscard]] std::vector<Token> tokenize();

 private:
  std::string_view src_;
  DiagEngine& diags_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;

  [[nodiscard]] char peek(int ahead = 0) const;
  char advance();
  /// Consume the next `n` characters, none of them a newline.
  std::string_view take(std::size_t n);
  [[nodiscard]] bool atEnd() const { return pos_ >= src_.size(); }
  [[nodiscard]] SourceLoc here() const { return {line_, col_}; }

  void skipTrivia();
  Token lexNumber();
  Token lexIdent();
};

}  // namespace mphls
