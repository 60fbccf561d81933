//===- syntax/Lexer.cpp ---------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "syntax/Lexer.h"

#include <charconv>
#include <cstdio>

using namespace cmm;

const char *cmm::tokKindName(TokKind K) {
  switch (K) {
  case TokKind::Eof: return "end of input";
  case TokKind::Ident: return "identifier";
  case TokKind::PrimName: return "primitive name";
  case TokKind::IntLit: return "integer literal";
  case TokKind::FloatLit: return "float literal";
  case TokKind::StrLit: return "string literal";
  case TokKind::KwExport: return "'export'";
  case TokKind::KwImport: return "'import'";
  case TokKind::KwGlobal: return "'global'";
  case TokKind::KwRegister: return "'register'";
  case TokKind::KwData: return "'data'";
  case TokKind::KwBits8: return "'bits8'";
  case TokKind::KwBits16: return "'bits16'";
  case TokKind::KwBits32: return "'bits32'";
  case TokKind::KwBits64: return "'bits64'";
  case TokKind::KwFloat32: return "'float32'";
  case TokKind::KwFloat64: return "'float64'";
  case TokKind::KwIf: return "'if'";
  case TokKind::KwElse: return "'else'";
  case TokKind::KwGoto: return "'goto'";
  case TokKind::KwReturn: return "'return'";
  case TokKind::KwJump: return "'jump'";
  case TokKind::KwCut: return "'cut'";
  case TokKind::KwTo: return "'to'";
  case TokKind::KwContinuation: return "'continuation'";
  case TokKind::KwAlso: return "'also'";
  case TokKind::KwCuts: return "'cuts'";
  case TokKind::KwUnwinds: return "'unwinds'";
  case TokKind::KwReturns: return "'returns'";
  case TokKind::KwAborts: return "'aborts'";
  case TokKind::KwDescriptors: return "'descriptors'";
  case TokKind::KwSizeof: return "'sizeof'";
  case TokKind::LBrace: return "'{'";
  case TokKind::RBrace: return "'}'";
  case TokKind::LParen: return "'('";
  case TokKind::RParen: return "')'";
  case TokKind::LBracket: return "'['";
  case TokKind::RBracket: return "']'";
  case TokKind::Comma: return "','";
  case TokKind::Semi: return "';'";
  case TokKind::Colon: return "':'";
  case TokKind::Assign: return "'='";
  case TokKind::EqEq: return "'=='";
  case TokKind::NotEq: return "'!='";
  case TokKind::Less: return "'<'";
  case TokKind::LessEq: return "'<='";
  case TokKind::Greater: return "'>'";
  case TokKind::GreaterEq: return "'>='";
  case TokKind::Plus: return "'+'";
  case TokKind::Minus: return "'-'";
  case TokKind::Star: return "'*'";
  case TokKind::Slash: return "'/'";
  case TokKind::Percent: return "'%'";
  case TokKind::Amp: return "'&'";
  case TokKind::Pipe: return "'|'";
  case TokKind::Caret: return "'^'";
  case TokKind::Shl: return "'<<'";
  case TokKind::Shr: return "'>>'";
  case TokKind::Tilde: return "'~'";
  case TokKind::Bang: return "'!'";
  }
  return "token";
}

namespace {

enum CharClass : uint8_t {
  IdentRest = 1, ///< [A-Za-z0-9_]
  Digit = 2,
  HexDigit = 4,
  Alpha = 8,
  /// Starts a token or trivia; every other byte is stray.
  Lexical = 16,
};

constexpr auto CharClasses = [] {
  struct Table {
    uint8_t C[256] = {};
  } T;
  for (int C = 0; C < 256; ++C) {
    bool Lower = C >= 'a' && C <= 'z', Upper = C >= 'A' && C <= 'Z';
    bool Dig = C >= '0' && C <= '9';
    uint8_t K = 0;
    if (Lower || Upper)
      K |= IdentRest | Alpha;
    if (C == '_')
      K |= IdentRest;
    if (Dig)
      K |= IdentRest | Digit | HexDigit;
    if ((C >= 'a' && C <= 'f') || (C >= 'A' && C <= 'F'))
      K |= HexDigit;
    if (K & IdentRest)
      K |= Lexical;
    T.C[C] = K;
  }
  for (unsigned char C : std::string_view("%\"{}()[],;:+-*/&|^~=!<> \t\r\n"))
    T.C[C] |= Lexical;
  return T;
}();

bool is(char C, uint8_t Class) {
  return CharClasses.C[static_cast<unsigned char>(C)] & Class;
}

TokKind keywordKind(std::string_view T) {
  switch (T.size()) {
  case 2:
    if (T == "if") return TokKind::KwIf;
    if (T == "to") return TokKind::KwTo;
    break;
  case 3:
    if (T == "cut") return TokKind::KwCut;
    break;
  case 4:
    if (T == "data") return TokKind::KwData;
    if (T == "else") return TokKind::KwElse;
    if (T == "goto") return TokKind::KwGoto;
    if (T == "jump") return TokKind::KwJump;
    if (T == "also") return TokKind::KwAlso;
    if (T == "cuts") return TokKind::KwCuts;
    break;
  case 5:
    if (T == "bits8") return TokKind::KwBits8;
    break;
  case 6:
    if (T == "bits32") return TokKind::KwBits32;
    if (T == "return") return TokKind::KwReturn;
    if (T == "bits64") return TokKind::KwBits64;
    if (T == "bits16") return TokKind::KwBits16;
    if (T == "export") return TokKind::KwExport;
    if (T == "import") return TokKind::KwImport;
    if (T == "global") return TokKind::KwGlobal;
    if (T == "aborts") return TokKind::KwAborts;
    if (T == "sizeof") return TokKind::KwSizeof;
    break;
  case 7:
    if (T == "unwinds") return TokKind::KwUnwinds;
    if (T == "returns") return TokKind::KwReturns;
    if (T == "float64") return TokKind::KwFloat64;
    if (T == "float32") return TokKind::KwFloat32;
    break;
  case 8:
    if (T == "register") return TokKind::KwRegister;
    break;
  case 11:
    if (T == "descriptors") return TokKind::KwDescriptors;
    break;
  case 12:
    if (T == "continuation") return TokKind::KwContinuation;
    break;
  }
  return TokKind::Ident;
}

/// A byte as it should appear quoted in a diagnostic.
std::string showByte(char C) {
  auto U = static_cast<unsigned char>(C);
  if (U >= 0x20 && U < 0x7f)
    return std::string(1, C);
  char Buf[8];
  std::snprintf(Buf, sizeof(Buf), "\\x%02x", U);
  return Buf;
}

} // namespace

// Inlined into next(): it runs once per token.
[[gnu::always_inline]] inline void Lexer::skipTrivia() {
  const char *Begin = Source.data(), *P = Begin + Pos,
             *End = Begin + Source.size();
  while (P != End) {
    char C = *P;
    if (C == ' ' || C == '\t' || C == '\r') {
      ++P;
      continue;
    }
    if (C == '\n') {
      ++P;
      ++Line;
      LineStart = size_t(P - Begin);
      continue;
    }
    if (C != '/' || P + 1 == End || (P[1] != '/' && P[1] != '*'))
      break;
    Pos = size_t(P - Begin);
    skipComment();
    P = Begin + Pos;
  }
  Pos = size_t(P - Begin);
}

void Lexer::skipComment() {
  const size_t N = Source.size();
  if (Source[Pos + 1] == '/') {
    while (Pos < N && Source[Pos] != '\n')
      ++Pos;
    return;
  }
  SourceLoc Start = here();
  size_t Close = Source.find("*/", Pos + 2);
  size_t Stop = Close == std::string_view::npos ? N : Close + 2;
  for (size_t NL = Source.find('\n', Pos); NL < Stop;
       NL = Source.find('\n', NL + 1)) {
    Pos = NL + 1;
    newLine();
  }
  Pos = Stop;
  if (Close == std::string_view::npos)
    Diags.error(Start, "unterminated block comment");
}

void Lexer::lexIdentOrKeyword(Token &T) {
  const char *Begin = Source.data(), *Start = Begin + Pos, *P = Start,
             *End = Begin + Source.size();
  while (P != End && is(*P, IdentRest))
    ++P;
  Pos = size_t(P - Begin);
  T.Text = std::string_view(Start, size_t(P - Start));
  T.Kind = keywordKind(T.Text);
}

void Lexer::lexPrimName(Token &T) {
  size_t Start = Pos++; // first '%'
  if (peek() == '%')
    ++Pos; // "%%" slow-but-solid spelling
  if (!is(peek(), Alpha)) {
    // A lone '%' is the modulus operator.
    T.Kind = TokKind::Percent;
    return;
  }
  while (Pos < Source.size() && is(Source[Pos], IdentRest))
    ++Pos;
  T.Kind = TokKind::PrimName;
  T.Text = Source.substr(Start, Pos - Start);
}

void Lexer::lexNumber(Token &T) {
  const size_t N = Source.size();
  size_t Start = Pos;
  T.Kind = TokKind::IntLit;
  T.IntValue = 0;
  if (Source[Pos] == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
    Pos += 2;
    size_t Digits = Pos;
    while (Pos < N && is(Source[Pos], HexDigit))
      ++Pos;
    if (Pos == Digits) {
      Diags.error(T.Loc, "hexadecimal literal '" +
                             std::string(Source.substr(Start, Pos - Start)) +
                             "' has no digits");
      return;
    }
    uint64_t V = 0;
    bool Overflow = false;
    for (size_t I = Digits; I < Pos; ++I) {
      char C = Source[I];
      unsigned D = is(C, Digit) ? C - '0' : (C | 0x20) - 'a' + 10;
      Overflow |= V >> 60 != 0;
      V = V << 4 | D;
    }
    if (Overflow)
      Diags.error(T.Loc, "integer literal '" +
                             std::string(Source.substr(Start, Pos - Start)) +
                             "' does not fit in 64 bits");
    else
      T.IntValue = V;
    return;
  }
  while (Pos < N && is(Source[Pos], Digit))
    ++Pos;
  if (peek() == '.' && is(peek(1), Digit)) {
    Pos += 1;
    while (Pos < N && is(Source[Pos], Digit))
      ++Pos;
    if (peek() == 'e' || peek() == 'E') {
      ++Pos;
      if (peek() == '+' || peek() == '-')
        ++Pos;
      while (Pos < N && is(Source[Pos], Digit))
        ++Pos;
    }
    T.Kind = TokKind::FloatLit;
    T.FloatValue = 0;
    std::from_chars(Source.data() + Start, Source.data() + Pos, T.FloatValue);
    return;
  }
  uint64_t V = 0;
  bool Overflow = false;
  for (size_t I = Start; I < Pos; ++I)
    Overflow |= __builtin_mul_overflow(V, 10, &V) ||
                __builtin_add_overflow(V, uint64_t(Source[I] - '0'), &V);
  if (Overflow)
    Diags.error(T.Loc, "integer literal '" +
                           std::string(Source.substr(Start, Pos - Start)) +
                           "' does not fit in 64 bits");
  else
    T.IntValue = V;
}

void Lexer::lexString(Token &T) {
  const size_t N = Source.size();
  ++Pos; // opening quote
  size_t Start = Pos;
  while (Pos < N && Source[Pos] != '"') {
    char C = Source[Pos++];
    if (C == '\n') {
      newLine();
    } else if (C == '\\' && Pos < N) {
      char E = Source[Pos++];
      if (E == '\n')
        newLine();
      switch (E) {
      case 'n': case 't': case '0': case '\\': case '"':
        break;
      default:
        Diags.error(here(), "unknown escape '\\" + showByte(E) + "'");
      }
    }
  }
  T.Kind = TokKind::StrLit;
  T.Text = Source.substr(Start, Pos - Start);
  if (Pos >= N)
    Diags.error(T.Loc, "unterminated string literal");
  else
    ++Pos; // closing quote
}

size_t cmm::decodeStringLiteral(std::string_view Raw, char *Out) {
  size_t Len = 0;
  for (size_t I = 0; I < Raw.size();) {
    char C = Raw[I++];
    if (C != '\\' || I == Raw.size()) {
      Out[Len++] = C;
      continue;
    }
    switch (Raw[I++]) {
    case 'n': Out[Len++] = '\n'; break;
    case 't': Out[Len++] = '\t'; break;
    case '0': Out[Len++] = '\0'; break;
    case '\\': Out[Len++] = '\\'; break;
    case '"': Out[Len++] = '"'; break;
    default: break;
    }
  }
  return Len;
}

/// Reports a run of bytes that start no token as one diagnostic, so hostile
/// input costs one message per run rather than one per byte.
void Lexer::skipStrayBytes(SourceLoc Loc) {
  size_t Start = Pos++; // always progress, even past a byte next() missed
  while (Pos < Source.size() && !is(Source[Pos], Lexical))
    ++Pos;
  size_t Run = Pos - Start;
  std::string First = showByte(Source[Start]);
  if (Run == 1)
    Diags.error(Loc, "unexpected character '" + First + "'");
  else
    Diags.error(Loc, std::to_string(Run) +
                         " unexpected characters, starting with '" + First +
                         "'");
}

void Lexer::next(Token &T) {
  for (;;) {
    skipTrivia();
    T.Loc = here();
    if (Pos >= Source.size()) {
      T.Kind = TokKind::Eof;
      return;
    }
    char C = Source[Pos];
    auto Two = [&](char Second, TokKind IfTwo, TokKind IfOne) {
      if (peek() != Second)
        return IfOne;
      ++Pos;
      return IfTwo;
    };
    switch (C) {
    case 'a' ... 'z':
    case 'A' ... 'Z':
    case '_':
      return lexIdentOrKeyword(T);
    case '0' ... '9':
      return lexNumber(T);
    case '%':
      return lexPrimName(T);
    case '"':
      return lexString(T);
    case '{': T.Kind = TokKind::LBrace; break;
    case '}': T.Kind = TokKind::RBrace; break;
    case '(': T.Kind = TokKind::LParen; break;
    case ')': T.Kind = TokKind::RParen; break;
    case '[': T.Kind = TokKind::LBracket; break;
    case ']': T.Kind = TokKind::RBracket; break;
    case ',': T.Kind = TokKind::Comma; break;
    case ';': T.Kind = TokKind::Semi; break;
    case ':': T.Kind = TokKind::Colon; break;
    case '+': T.Kind = TokKind::Plus; break;
    case '-': T.Kind = TokKind::Minus; break;
    case '*': T.Kind = TokKind::Star; break;
    case '/': T.Kind = TokKind::Slash; break;
    case '&': T.Kind = TokKind::Amp; break;
    case '|': T.Kind = TokKind::Pipe; break;
    case '^': T.Kind = TokKind::Caret; break;
    case '~': T.Kind = TokKind::Tilde; break;
    case '=': ++Pos; T.Kind = Two('=', TokKind::EqEq, TokKind::Assign); return;
    case '!': ++Pos; T.Kind = Two('=', TokKind::NotEq, TokKind::Bang); return;
    case '<':
      ++Pos;
      T.Kind = peek() == '<' ? (++Pos, TokKind::Shl)
                             : Two('=', TokKind::LessEq, TokKind::Less);
      return;
    case '>':
      ++Pos;
      T.Kind = peek() == '>' ? (++Pos, TokKind::Shr)
                             : Two('=', TokKind::GreaterEq, TokKind::Greater);
      return;
    default:
      skipStrayBytes(T.Loc);
      continue;
    }
    ++Pos;
    return;
  }
}
