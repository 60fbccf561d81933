//===- tests/FrontRobustnessTest.cpp - Hostile and mangled sources --------===//
//
// Part of cmmex (see DESIGN.md). The front end must reject any input with
// diagnostics rather than crash: compileProgram either returns a program or
// returns null with at least one diagnostic, and every diagnostic's location
// is unknown (line 0: program-level link errors) or inside the source.
//
// Two families of input: sources a service client could send to overflow the
// stack or flood the diagnostics (runs of stray bytes, deep nesting, error
// floods), with the exact nesting limit and the else-if chains that do not
// count against it; and generated programs mangled by truncation and
// single-byte flips. Run under ASan+UBSan in CI, which also checks the token
// views into the source and the lifetime of the arenas.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "costmodel/DispatchWorkloads.h"
#include "costmodel/RandomProgram.h"
#include "ir/IlText.h"
#include "ir/Serialize.h"
#include "ir/Translate.h"
#include "opt/PassManager.h"
#include "support/Rng.h"
#include "syntax/AstPrinter.h"
#include "syntax/Parser.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace cmm;
using namespace cmm::test;

namespace {

/// Line lengths of \p Src, so locations can be checked against it.
std::vector<size_t> lineLengths(const std::string &Src) {
  std::vector<size_t> Lens(1, 0);
  for (char C : Src) {
    if (C == '\n')
      Lens.push_back(0);
    else
      ++Lens.back();
  }
  return Lens;
}

/// Compiles \p Src and checks the contract above. Returns the program (or
/// null) for further checks.
std::unique_ptr<IrProgram> compileChecked(const std::string &Src,
                                          const std::string &What) {
  DiagnosticEngine Diags;
  std::unique_ptr<IrProgram> Prog = compileProgram({Src}, Diags);
  if (!Prog) {
    EXPECT_GT(Diags.errorCount(), 0u) << What << ": null without a diagnostic";
  }
  std::vector<size_t> Lens = lineLengths(Src);
  for (const Diagnostic &D : Diags.diagnostics()) {
    if (!D.Loc.isValid())
      continue;
    bool Inside = D.Loc.Line <= Lens.size() && D.Loc.Col >= 1 &&
                  D.Loc.Col <= Lens[D.Loc.Line - 1] + 1;
    EXPECT_TRUE(Inside) << What << ": diagnostic outside the source: "
                        << D.str();
  }
  return Prog;
}

std::string hostileProgram(const std::string &Body) {
  return "export main;\nmain(bits32 n) {\n" + Body + "\n}\n";
}

TEST(HostileSource, MegabyteOfStrayBytesIsOneDiagnostic) {
  std::string Src(1 << 20, '@');
  DiagnosticEngine Diags;
  EXPECT_EQ(compileProgram({Src}, Diags), nullptr);
  EXPECT_EQ(Diags.errorCount(), 1u) << Diags.str();
  compileChecked(Src, "stray bytes");
}

constexpr size_t Limit = Parser::MaxNesting;

/// "n + 1 + ... + 1" with \p Ops operators: a tree Ops + 1 levels tall.
std::string chain(size_t Ops) {
  std::string E = "n";
  for (size_t I = 0; I < Ops; ++I)
    E += " + 1";
  return E;
}

/// "((n + 1) + 1) ..." with \p Ops operators, each parenthesised, as a
/// front end that brackets every operation emits it.
std::string bracketedChain(size_t Ops) {
  std::string E(Ops, '(');
  E += "n";
  for (size_t I = 0; I < Ops; ++I)
    E += " + 1)";
  return E;
}

/// \p N nested ifs around an assignment.
std::string nestedIfs(size_t N) {
  std::string B;
  for (size_t I = 0; I < N; ++I)
    B += "if n {";
  return B + "n = 1;" + std::string(N, '}');
}

bool rejectedForDepth(const std::string &Src, const std::string &What) {
  DiagnosticEngine Diags;
  if (compileProgram({Src}, Diags)) {
    ADD_FAILURE() << What << ": compiled";
    return false;
  }
  EXPECT_LE(Diags.errorCount(), 5u) << What << ":\n" << Diags.str();
  compileChecked(Src, What);
  return Diags.str().find("deeper than the limit") != std::string::npos;
}

TEST(HostileSource, DeepNestingIsRejectedNotOverflowed) {
  const size_t N = 100000;
  struct Case {
    const char *What;
    std::string Src;
  } Cases[] = {
      {"parentheses", hostileProgram("return (" + std::string(N, '(') + "n" +
                                     std::string(N, ')') + ");")},
      {"minus signs", hostileProgram("return (" + std::string(N, '-') +
                                     "n);")},
      {"binary chain", hostileProgram("n = " + chain(N) + ";")},
      {"nested ifs", hostileProgram(nestedIfs(N))},
      // Each chain is flat and each bracket is shallow, but the tree is
      // 400 x 400 levels tall.
      {"chains of chains", hostileProgram([] {
         std::string E = std::string(400, '(') + "n";
         for (int I = 0; I < 400; ++I)
           E += chain(400).substr(1) + ")";
         return "n = " + E + ";";
       }())},
  };
  for (const Case &C : Cases)
    EXPECT_TRUE(rejectedForDepth(C.Src, C.What)) << C.What;
}

/// Compiles \p Src and runs main(1) unoptimized on the walker, through a
/// serialization round trip, and optimized on the VM: every pass that walks
/// expression trees recursively.
void compilesAndRuns(const std::string &Src, const std::string &What) {
  std::unique_ptr<IrProgram> Prog = compileChecked(Src, What);
  ASSERT_NE(Prog, nullptr) << What;
  Machine Walker(*Prog);
  std::vector<Value> Want = runToHalt(Walker, "main", {b32(1)});
  ByteWriter W;
  serializeIr(*Prog, W);
  ByteReader R(W.buffer());
  std::unique_ptr<IrProgram> Back = deserializeIr(R);
  ASSERT_NE(Back, nullptr) << What;
  ASSERT_NE(parseIl(printIl(*Back)), nullptr) << What;
  optimizeProgram(*Back);
  VmMachine Vm(*Back);
  Vm.start("main", {b32(1)});
  ASSERT_EQ(Vm.run(), MachineStatus::Halted) << What << ": "
                                             << Vm.wrongReason();
  EXPECT_EQ(Vm.argArea(), Want) << What;
}

TEST(HostileSource, NestingLimitIsExact) {
  // The deepest source of each shape compiles and runs; one level more is
  // rejected. A statement's expression starts one level down, and so does
  // everything inside an if's body.
  struct Case {
    const char *What;
    std::string Deepest, OneMore;
  } Cases[] = {
      {"binary chain", "n = " + chain(Limit - 1) + ";",
       "n = " + chain(Limit) + ";"},
      {"bracketed chain", "n = " + bracketedChain(Limit - 1) + ";",
       "n = " + bracketedChain(Limit) + ";"},
      {"parentheses",
       "n = " + std::string(Limit - 1, '(') + "n" +
           std::string(Limit - 1, ')') + ";",
       "n = " + std::string(Limit, '(') + "n" + std::string(Limit, ')') +
           ";"},
      {"minus signs", "n = " + std::string(Limit - 1, '-') + "n;",
       "n = " + std::string(Limit, '-') + "n;"},
      {"nested ifs", nestedIfs(Limit - 1), nestedIfs(Limit)},
  };
  for (const Case &C : Cases) {
    compilesAndRuns(hostileProgram(C.Deepest + " return (n);"), C.What);
    EXPECT_TRUE(rejectedForDepth(hostileProgram(C.OneMore), C.What))
        << C.What;
  }
}

TEST(HostileSource, ElseIfChainsDoNotNest) {
  // Generated code lowers a switch to a long else-if chain; its arms sit
  // side by side in the source, so no pass may recurse along the chain.
  const size_t Arms = 20000;
  std::string B = "if n == 0 { n = 7; }";
  for (size_t I = 1; I < Arms; ++I)
    B += " else if n == " + std::to_string(I) + " { n = " +
         std::to_string(I + 7) + "; }";
  std::string Src = hostileProgram(B + " else { n = 0; } return (n);");
  std::unique_ptr<IrProgram> Prog = compileChecked(Src, "else-if chain");
  ASSERT_NE(Prog, nullptr);
  Machine Walker(*Prog);
  EXPECT_EQ(runToHalt(Walker, "main", {b32(Arms - 1)}),
            std::vector<Value>{b32(Arms + 6)});
  // The printer writes the chain back as one, so the text parses again.
  DiagnosticEngine Diags;
  Parser P1(Src, Diags);
  Module M1 = P1.parseModule();
  std::string Printed = printModule(M1);
  Parser P2(Printed, Diags);
  Module M2 = P2.parseModule();
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_EQ(printModule(M2), Printed);
}

TEST(HostileSource, DiagnosticsAreCapped) {
  // Neither the lexer (one error per bad escape) nor Sema (one error per
  // undefined name) can grow the diagnostics without bound.
  std::string Escapes = "export main;\nmain() { foo(\"";
  for (size_t I = 0; I < (1u << 19); ++I)
    Escapes += "\\q";
  Escapes += "\"); return (); }\n";
  std::string Undefined = "export main;\nmain() {\n";
  for (int I = 0; I < 100000; ++I)
    Undefined += "  x = y;\n";
  Undefined += "}\n";
  for (const std::string *Src : {&Escapes, &Undefined}) {
    DiagnosticEngine Diags;
    EXPECT_EQ(compileProgram({*Src}, Diags), nullptr);
    EXPECT_GT(Diags.errorCount(), DiagnosticEngine::MaxKept);
    ASSERT_EQ(Diags.diagnostics().size(), DiagnosticEngine::MaxKept + 1);
    EXPECT_EQ(Diags.diagnostics().back().Kind, DiagKind::Note);
    EXPECT_NE(Diags.diagnostics().back().Message.find("too many errors"),
              std::string::npos);
    compileChecked(*Src, "flood");
  }
}

TEST(HostileSource, ErrorFloodsAreCut) {
  std::string Src;
  for (int I = 0; I < 10000; ++I)
    Src += "; ";
  DiagnosticEngine Diags;
  EXPECT_EQ(compileProgram({Src}, Diags), nullptr);
  EXPECT_LE(Diags.errorCount(), 101u);
  EXPECT_NE(Diags.str().find("too many errors"), std::string::npos);
}

/// Generated programs, cut at every 64th byte and flipped at seeded bytes.
TEST(FrontRobustness, TruncatedAndFlippedProgramsNeverCrash) {
  std::vector<std::string> Programs;
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    RandomProgramOptions O;
    O.NumProcs = 2 + unsigned(Seed % 11);
    O.Strategy = AllDispatchTechniques[Seed % std::size(AllDispatchTechniques)];
    Programs.push_back(generateRandomProgram(Seed, O));
  }
  unsigned Compiled = 0, Rejected = 0;
  for (size_t P = 0; P < Programs.size(); ++P) {
    const std::string &Src = Programs[P];
    ASSERT_NE(compileChecked(Src, "program " + std::to_string(P)), nullptr);
    for (size_t Cut = 0; Cut < Src.size(); Cut += 64) {
      bool Ok = compileChecked(Src.substr(0, Cut),
                               "program " + std::to_string(P) + " cut at " +
                                   std::to_string(Cut)) != nullptr;
      (Ok ? Compiled : Rejected) += 1;
    }
  }
  Rng R(0x666c6970);
  for (unsigned I = 0; I < 200; ++I) {
    std::string Src = Programs[R.below(Programs.size())];
    size_t At = R.below(Src.size());
    Src[At] = char(R.below(256));
    bool Ok = compileChecked(Src, "flip " + std::to_string(I) + " at " +
                                      std::to_string(At)) != nullptr;
    (Ok ? Compiled : Rejected) += 1;
  }
  // Both outcomes occur, so the cases exercise the error paths.
  EXPECT_GT(Compiled, 0u);
  EXPECT_GT(Rejected, 0u);
}

} // namespace
