//===- tests/SyntaxTest.cpp - Lexer, parser, printer, Sema ----------------===//
//
// Part of cmmex (see DESIGN.md). The concrete C-- language layer: token
// coverage, the parse -> print round trip (a fixpoint after one iteration),
// and the static checks Sema enforces for the paper's annotation rules.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "costmodel/DispatchWorkloads.h"
#include "costmodel/RandomProgram.h"
#include "syntax/AstPrinter.h"
#include "syntax/Lexer.h"
#include "syntax/Parser.h"

using namespace cmm;
using namespace cmm::test;

namespace {

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

/// Tokens view the source, so \p Src must outlive them (string literals do).
std::vector<Token> lexAll(std::string_view Src, DiagnosticEngine &Diags) {
  Lexer L(Src, Diags);
  std::vector<Token> Out;
  while (true) {
    Token T;
    L.next(T);
    bool End = T.is(TokKind::Eof);
    Out.push_back(T);
    if (End)
      return Out;
  }
}

TEST(Lexer, TokensAndLocations) {
  DiagnosticEngine Diags;
  std::vector<Token> Ts = lexAll("foo(bits32 n) {\n  n = 0x1F + 2;\n}", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  ASSERT_GE(Ts.size(), 12u);
  EXPECT_EQ(Ts[0].Kind, TokKind::Ident);
  EXPECT_EQ(Ts[0].Text, "foo");
  EXPECT_EQ(Ts[0].Loc.Line, 1u);
  EXPECT_EQ(Ts[2].Kind, TokKind::KwBits32);
  // 0x1F on line 2.
  bool SawHex = false;
  for (const Token &T : Ts)
    if (T.is(TokKind::IntLit) && T.IntValue == 0x1F) {
      SawHex = true;
      EXPECT_EQ(T.Loc.Line, 2u);
    }
  EXPECT_TRUE(SawHex);
}

TEST(Lexer, PrimitiveNamesAndOperators) {
  DiagnosticEngine Diags;
  std::vector<Token> Ts =
      lexAll("%divu %%divu a %% b << >> <= >= == != < >", Diags);
  EXPECT_EQ(Ts[0].Kind, TokKind::PrimName);
  EXPECT_EQ(Ts[0].Text, "%divu");
  EXPECT_EQ(Ts[1].Kind, TokKind::PrimName);
  EXPECT_EQ(Ts[1].Text, "%%divu");
  // A lone '%' (even doubled) lexes as modulus operators.
  EXPECT_EQ(Ts[3].Kind, TokKind::Percent);
  std::vector<TokKind> Kinds;
  for (const Token &T : Ts)
    Kinds.push_back(T.Kind);
  for (TokKind K : {TokKind::Shl, TokKind::Shr, TokKind::LessEq,
                    TokKind::GreaterEq, TokKind::EqEq, TokKind::NotEq,
                    TokKind::Less, TokKind::Greater})
    EXPECT_NE(std::find(Kinds.begin(), Kinds.end(), K), Kinds.end());
}

TEST(Lexer, CommentsAndStrings) {
  DiagnosticEngine Diags;
  std::vector<Token> Ts = lexAll(
      "/* block\ncomment */ a // line comment\n \"s\\n\\\"x\\0\"", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_EQ(Ts[0].Kind, TokKind::Ident);
  EXPECT_EQ(Ts[1].Kind, TokKind::StrLit);
  // The token views the raw bytes; the parser decodes them.
  std::string Decoded(Ts[1].Text.size(), '?');
  Decoded.resize(decodeStringLiteral(Ts[1].Text, Decoded.data()));
  EXPECT_EQ(Decoded, std::string("s\n\"x\0", 5));
}

TEST(Lexer, ErrorsOnBadInput) {
  DiagnosticEngine D1;
  lexAll("/* never closed", D1);
  EXPECT_TRUE(D1.hasErrors());
  DiagnosticEngine D2;
  lexAll("\"never closed", D2);
  EXPECT_TRUE(D2.hasErrors());
  DiagnosticEngine D3;
  lexAll("a $ b", D3);
  EXPECT_TRUE(D3.hasErrors());

  // Integer literals that do not fit in 64 bits, and a hex prefix with no
  // digits, are errors at the literal.
  for (const char *Bad : {"x = 18446744073709551616;",
                          "x = 0x10000000000000000;", "x = 0x;", "x = 0X;"}) {
    DiagnosticEngine D;
    lexAll(Bad, D);
    ASSERT_EQ(D.errorCount(), 1u) << Bad;
    EXPECT_EQ(D.diagnostics()[0].Loc, SourceLoc(1, 5)) << Bad;
  }
  DiagnosticEngine Max;
  std::vector<Token> Ts =
      lexAll("18446744073709551615 0xffffffffffffffff 0x00000000000000000001",
             Max);
  EXPECT_FALSE(Max.hasErrors()) << Max.str();
  EXPECT_EQ(Ts[0].IntValue, ~0ull);
  EXPECT_EQ(Ts[1].IntValue, ~0ull);
  EXPECT_EQ(Ts[2].IntValue, 1u);

  // A run of stray bytes is one diagnostic, however long.
  DiagnosticEngine D4;
  lexAll(std::string_view("a @@@@\x01\xff b $"), D4);
  ASSERT_EQ(D4.errorCount(), 2u) << D4.str();
  EXPECT_EQ(D4.diagnostics()[0].Loc, SourceLoc(1, 3));
  EXPECT_EQ(D4.diagnostics()[1].Loc, SourceLoc(1, 12));
}

TEST(Lexer, FloatLiterals) {
  DiagnosticEngine Diags;
  std::vector<Token> Ts = lexAll("1.5 2.25e2 7", Diags);
  EXPECT_EQ(Ts[0].Kind, TokKind::FloatLit);
  EXPECT_DOUBLE_EQ(Ts[0].FloatValue, 1.5);
  EXPECT_EQ(Ts[1].Kind, TokKind::FloatLit);
  EXPECT_DOUBLE_EQ(Ts[1].FloatValue, 225.0);
  EXPECT_EQ(Ts[2].Kind, TokKind::IntLit);
}

//===----------------------------------------------------------------------===//
// Parse -> print round trip
//===----------------------------------------------------------------------===//

/// print(parse(print(parse(Src)))) == print(parse(Src)).
void expectRoundTrip(const std::string &Src) {
  DiagnosticEngine D1;
  Parser P1(Src, D1);
  Module M1 = P1.parseModule();
  ASSERT_FALSE(D1.hasErrors()) << D1.str() << "\nsource:\n" << Src;
  std::string Printed = printModule(M1);

  DiagnosticEngine D2;
  Parser P2(Printed, D2);
  Module M2 = P2.parseModule();
  ASSERT_FALSE(D2.hasErrors()) << D2.str() << "\nprinted:\n" << Printed;
  EXPECT_EQ(Printed, printModule(M2)) << "original:\n" << Src;
}

TEST(RoundTrip, DispatchWorkloads) {
  for (DispatchTechnique T : AllDispatchTechniques)
    expectRoundTrip(dispatchWorkloadSource(T));
}

TEST(RoundTrip, StdLib) { expectRoundTrip(stdLibSource()); }

TEST(RoundTrip, AllSyntaxFeatures) {
  expectRoundTrip(R"(
export f, %%checked;
import ext_data;
global bits32 g;
register bits64 wide;
data blob {
  bits32 1, 2, 3;
  bits8 "text";
  bits32 f;
  bits16[10];
}
%%checked(bits32 a) {
  if a == 0 { yield(1) also aborts; }
  return (a);
}
f(bits32 x, float64 w) {
  bits32 a, b, t, u;
  float32 h;
  a = (x + 1) * 2 - (3 & x | 4 ^ 5);
  b = x << 2 >> 1;
  a = -x + ~b;
  a = !(x < 1);
  bits32[g + 4] = bits32[g] + sizeof(a);
  if a >= b {
    goto out;
  } else {
    a, b = f(a, w) also cuts to k1 also unwinds to k2
           also returns to k3 also aborts descriptors blob, 7;
  }
out:
  jump f(a, w);
continuation k1(t, u):
  cut to t(u) also cuts to k1;
continuation k2(t):
  return <0/1> (t);
continuation k3(t, u):
  return (t, u);
}
)");
}

class RandomRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomRoundTrip, GeneratedProgramsRoundTrip) {
  expectRoundTrip(generateRandomProgram(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRoundTrip,
                         ::testing::Range<uint64_t>(100, 120));

//===----------------------------------------------------------------------===//
// Sema: the static rules of the paper
//===----------------------------------------------------------------------===//

TEST(Sema, AnnotationMustNameContinuationOfSameProcedure) {
  // "The names appearing in these annotations ... are always names of
  // continuations declared in the same procedure as the call site"
  // (Section 4.4).
  std::string Err = compileError(R"(
export main;
other() {
  bits32 t;
  goto done;
continuation k(t):
  return;
done:
  return;
}
main() {
  other() also cuts to k;
  return (0);
}
)");
  EXPECT_NE(Err.find("not a continuation"), std::string::npos) << Err;
}

TEST(Sema, ContinuationParamsMustBeProcedureVariables) {
  // "The 'formal parameters' of a continuation must be variables of the
  // enclosing procedure" (Section 4.1).
  std::string Err = compileError(R"(
export main;
main() {
  goto done;
continuation k(undeclared):
  return;
done:
  return (0);
}
)");
  EXPECT_NE(Err.find("must be a variable"), std::string::npos) << Err;
}

TEST(Sema, GotoTargetMustBeLabelInSameProcedure) {
  std::string Err = compileError(R"(
export main;
other() {
somewhere:
  return;
}
main() {
  goto somewhere;
}
)");
  EXPECT_NE(Err.find("not a label"), std::string::npos) << Err;
}

TEST(Sema, FallthroughIntoContinuationRejected) {
  std::string Err = compileError(R"(
export main;
main() {
  bits32 t;
  t = 1;
continuation k(t):
  return (t);
}
)");
  EXPECT_NE(Err.find("fall through"), std::string::npos) << Err;
}

TEST(Sema, YieldIsReserved) {
  std::string Err = compileError("yield() { return; }\n");
  EXPECT_NE(Err.find("reserved"), std::string::npos) << Err;
}

TEST(Sema, DuplicateAndUndeclaredNames) {
  EXPECT_NE(compileError("export f;\nf() { return; }\nf() { return; }\n")
                .find("redefinition"),
            std::string::npos);
  EXPECT_NE(compileError("export f;\nf() { bits32 a, a; return; }\n")
                .find("redeclaration"),
            std::string::npos);
  EXPECT_NE(compileError("export f;\nf() { return (nope); }\n")
                .find("undeclared"),
            std::string::npos);
  EXPECT_NE(compileError("export f;\nimport missing_thing;\nf() { "
                         "return (missing_thing); }\n")
                .find("unresolved import"),
            std::string::npos);
}

TEST(Sema, WidthMismatchesAreRejected) {
  std::string Err = compileError(R"(
export f;
f(bits32 a, bits64 b) {
  return (a + b);
}
)");
  EXPECT_NE(Err.find("operand types differ"), std::string::npos) << Err;
}

TEST(Sema, LiteralsAdoptContextWidth) {
  const char *Src = R"(
export f;
f(bits64 a) {
  bits64 b;
  b = a + 1;          /* 1 becomes bits64 */
  if b > 10 { return (b); }
  return (0 - b);
}
)";
  auto Prog = compile({Src});
  ASSERT_TRUE(Prog);
  Machine M(*Prog);
  std::vector<Value> R = runToHalt(M, "f", {Value::bits(64, 20)});
  EXPECT_EQ(R[0], Value::bits(64, 21));
}

TEST(Sema, ReturnIndexMustNotExceedCount) {
  std::string Err =
      compileError("export f;\nf() { return <3/2> (1); }\n");
  EXPECT_NE(Err.find("exceeds"), std::string::npos) << Err;
}

TEST(Sema, DescriptorsMustBeLinkTimeConstants) {
  std::string Err = compileError(R"(
export main;
g() { return; }
main(bits32 x) {
  g() descriptors x;
  return (0);
}
)");
  EXPECT_NE(Err.find("link-time"), std::string::npos) << Err;
}

TEST(Sema, CutToStatementAllowsOnlyCutsToAnnotation) {
  std::string Err = compileError(R"(
export main;
main(bits32 x) {
  cut to x() also aborts;
}
)");
  EXPECT_NE(Err.find("only 'also cuts to'"), std::string::npos) << Err;
}

TEST(Sema, SlowPrimitivesAreNotExpressions) {
  std::string Err = compileError(R"(
export main;
main(bits32 x) {
  return (%%divu(x, 2) + 1);
}
)");
  EXPECT_NE(Err.find("procedure"), std::string::npos) << Err;
}

TEST(Sema, VariableContinuationCollision) {
  std::string Err = compileError(R"(
export main;
main() {
  bits32 k;
  goto done;
continuation k():
  return;
done:
  return (0);
}
)");
  EXPECT_NE(Err.find("collides"), std::string::npos) << Err;
}

} // namespace
