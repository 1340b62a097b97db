// Token definitions for BDL, the behavioral description language.
//
// BDL plays the role the tutorial assigns to "a programming language such
// as Pascal or Ada, or a hardware description language ... such as ISPS":
// a small procedural language with typed integer variables, assignments,
// structured control flow and procedures.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/diag.h"

namespace mphls {

enum class Tok : std::uint8_t {
  End,
  Ident,
  Number,
  // keywords
  KwProc, KwIn, KwOut, KwVar, KwIf, KwElse, KwWhile, KwDo, KwUntil,
  KwInt, KwUint, KwBool, KwTrue, KwFalse,
  KwTrunc, KwZext, KwSext,
  // punctuation
  LParen, RParen, LBrace, RBrace, Comma, Semi, Colon, Question,
  Assign,     // =
  // operators
  Plus, Minus, Star, Slash, Percent,
  Amp, Pipe, Caret, Tilde, Bang,
  AmpAmp, PipePipe,
  Shl, Shr,
  Eq, Ne, Lt, Le, Gt, Ge,
};

[[nodiscard]] std::string_view tokName(Tok t);

struct Token {
  Tok kind = Tok::End;
  /// Identifier spelling: a view into the lexed source, which must outlive
  /// the token (the parser copies what the AST keeps).
  std::string_view text;
  std::uint64_t number = 0;  ///< numeric literal payload
  SourceLoc loc;
};

}  // namespace mphls
