//===- tests/AnalysisTest.cpp - Dataflow, liveness, dominators ------------===//
//
// Part of cmmex (see DESIGN.md). Unit tests of the Table 3 fact layer and
// the analyses built on it, on small graphs with known answers.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "opt/Dominators.h"
#include "opt/Liveness.h"
#include "opt/Ssa.h"

using namespace cmm;
using namespace cmm::test;

namespace {

struct ProcUnderTest {
  std::unique_ptr<IrProgram> Prog;
  IrProc *P = nullptr;
  LocUniverse U;

  unsigned loc(const char *Name) {
    Symbol S = Prog->Names->lookup(Name);
    EXPECT_TRUE(S) << Name;
    std::optional<unsigned> I = U.varIndex(S);
    EXPECT_TRUE(I.has_value()) << Name;
    return *I;
  }

  Node *findNode(Node::Kind K, unsigned Skip = 0) {
    for (Node *N : reachableNodes(*P))
      if (N->kind() == K) {
        if (Skip == 0)
          return N;
        --Skip;
      }
    return nullptr;
  }
};

ProcUnderTest build(const char *Src, const char *ProcName) {
  ProcUnderTest T;
  T.Prog = compile({Src});
  if (!T.Prog)
    return T;
  T.P = T.Prog->findProc(ProcName);
  EXPECT_TRUE(T.P);
  T.U = LocUniverse::forProc(*T.P, *T.Prog);
  return T;
}

//===----------------------------------------------------------------------===//
// Table 3 facts
//===----------------------------------------------------------------------===//

TEST(Facts, AssignUsesFreeVarsDefinesTarget) {
  ProcUnderTest T = build(R"(
export f;
f(bits32 a, bits32 b) {
  bits32 c;
  c = a + bits32[b];
  return (c);
}
)",
                          "f");
  ASSERT_TRUE(T.P);
  Node *N = T.findNode(Node::Kind::Assign);
  ASSERT_TRUE(N);
  NodeFacts F = computeFacts(*N, T.U);
  EXPECT_TRUE(F.Use.test(T.loc("a")));
  EXPECT_TRUE(F.Use.test(T.loc("b")));
  EXPECT_TRUE(F.Use.test(T.U.memIndex())); // the load reads M
  EXPECT_TRUE(F.Def.test(T.loc("c")));
  EXPECT_FALSE(F.Def.test(T.loc("a")));
}

TEST(Facts, StoreReadsAndWritesMemory) {
  ProcUnderTest T = build(R"(
export f;
f(bits32 a) {
  bits32[a] = a + 1;
  return;
}
)",
                          "f");
  ASSERT_TRUE(T.P);
  Node *N = T.findNode(Node::Kind::Store);
  ASSERT_TRUE(N);
  NodeFacts F = computeFacts(*N, T.U);
  EXPECT_TRUE(F.Use.test(T.U.memIndex()));
  EXPECT_TRUE(F.Def.test(T.U.memIndex()));
  EXPECT_TRUE(F.Use.test(T.loc("a")));
}

TEST(Facts, CopyInCopiesFromArgumentArea) {
  ProcUnderTest T = build(R"(
export f;
g() { return (1, 2); }
f() {
  bits32 x, y;
  x, y = g();
  return (x + y);
}
)",
                          "f");
  ASSERT_TRUE(T.P);
  // The CopyIn for the call results (skip the parameter CopyIn).
  Node *N = T.findNode(Node::Kind::CopyIn, 1);
  ASSERT_TRUE(N);
  NodeFacts F = computeFacts(*N, T.U);
  EXPECT_TRUE(F.Def.test(T.loc("x")));
  EXPECT_TRUE(F.Def.test(T.loc("y")));
  EXPECT_TRUE(F.Use.test(T.U.argIndex(0)));
  EXPECT_TRUE(F.Use.test(T.U.argIndex(1)));
  ASSERT_EQ(F.Copies.size(), 2u);
  EXPECT_EQ(F.Copies[0].first, T.loc("x"));
  EXPECT_EQ(F.Copies[0].second, T.U.argIndex(0));
}

TEST(Facts, CalleeSavesHasNoDataflowEffect) {
  ProcUnderTest T = build("export f;\nf() { return; }\n", "f");
  ASSERT_TRUE(T.P);
  auto *CS = T.P->make<CalleeSavesNode>();
  NodeFacts F = computeFacts(*CS, T.U);
  EXPECT_EQ(F.Use.count(), 0u);
  EXPECT_EQ(F.Def.count(), 0u);
}

TEST(Facts, ExprCanFailClassification) {
  ProcUnderTest T = build(R"(
export f;
f(bits32 a, bits32 b) {
  bits32 x, y, z;
  x = a + b * 3;
  y = a / b;
  z = %modu(a, b);
  return (x + y + z);
}
)",
                          "f");
  ASSERT_TRUE(T.P);
  const auto *A0 = cast<AssignNode>(T.findNode(Node::Kind::Assign, 0));
  const auto *A1 = cast<AssignNode>(T.findNode(Node::Kind::Assign, 1));
  const auto *A2 = cast<AssignNode>(T.findNode(Node::Kind::Assign, 2));
  EXPECT_FALSE(exprCanFail(A0->Value, *T.Prog->Names));
  EXPECT_TRUE(exprCanFail(A1->Value, *T.Prog->Names));
  EXPECT_TRUE(exprCanFail(A2->Value, *T.Prog->Names));
}

//===----------------------------------------------------------------------===//
// Liveness
//===----------------------------------------------------------------------===//

const char *handlerLiveSource() {
  return R"(
export f;
g() { return (0); }
f(bits32 a) {
  bits32 y, r, t;
  y = a * 2;
  r = g() also cuts to k also aborts;
  return (r);
continuation k(t):
  return (y + t);
}
)";
}

TEST(Liveness, HandlerUseKeepsValueLiveAcrossCall) {
  ProcUnderTest T = build(handlerLiveSource(), "f");
  ASSERT_TRUE(T.P);
  Liveness L = computeLiveness(*T.P, T.U, /*WithExceptionalEdges=*/true);
  Node *Call = T.findNode(Node::Kind::Call);
  ASSERT_TRUE(Call);
  EXPECT_TRUE(L.LiveOut[Call->Id].test(T.loc("y")));
  EXPECT_TRUE(L.LiveIn[Call->Id].test(T.loc("y")));
}

TEST(Liveness, WithoutExceptionalEdgesTheValueLooksDead) {
  ProcUnderTest T = build(handlerLiveSource(), "f");
  ASSERT_TRUE(T.P);
  Liveness L = computeLiveness(*T.P, T.U, /*WithExceptionalEdges=*/false);
  Node *Call = T.findNode(Node::Kind::Call);
  ASSERT_TRUE(Call);
  EXPECT_FALSE(L.LiveOut[Call->Id].test(T.loc("y")));
}

TEST(Liveness, ArgumentAreaDiesAtCalls) {
  // A[i] holds arguments up to the call; every outgoing edge redefines it,
  // so A is never live across a call.
  ProcUnderTest T = build(R"(
export f;
g(bits32 x) { return (x); }
f(bits32 a) {
  bits32 r;
  r = g(a);
  return (r);
}
)",
                          "f");
  ASSERT_TRUE(T.P);
  Liveness L = computeLiveness(*T.P, T.U, true);
  Node *Call = T.findNode(Node::Kind::Call);
  ASSERT_TRUE(Call);
  EXPECT_TRUE(L.LiveIn[Call->Id].test(T.U.argIndex(0))); // argument
  EXPECT_FALSE(L.LiveOut[Call->Id].test(T.U.argIndex(0)));
}

TEST(Liveness, LoopKeepsInductionVariableLive) {
  ProcUnderTest T = build(R"(
export f;
f(bits32 n) {
  bits32 s;
  s = 0;
loop:
  if n == 0 { return (s); }
  s = s + n;
  n = n - 1;
  goto loop;
}
)",
                          "f");
  ASSERT_TRUE(T.P);
  Liveness L = computeLiveness(*T.P, T.U, true);
  Node *Branch = T.findNode(Node::Kind::Branch);
  ASSERT_TRUE(Branch);
  EXPECT_TRUE(L.LiveIn[Branch->Id].test(T.loc("n")));
  EXPECT_TRUE(L.LiveIn[Branch->Id].test(T.loc("s")));
}

//===----------------------------------------------------------------------===//
// May-σ
//===----------------------------------------------------------------------===//

TEST(MaySigma, PropagatesFromCalleeSavesNodes) {
  ProcUnderTest T = build(R"(
export f;
g() { return (0); }
f(bits32 a) {
  bits32 y, r;
  y = a;
  r = g();
  return (y + r);
}
)",
                          "f");
  ASSERT_TRUE(T.P);
  // Manually insert a CalleeSaves {y} before the call, as the pass would.
  Node *Call = T.findNode(Node::Kind::Call);
  ASSERT_TRUE(Call);
  auto *CS = T.P->make<CalleeSavesNode>();
  CS->Saved = T.P->makeList<Symbol>(1);
  CS->Saved[0] = T.Prog->Names->lookup("y");
  replaceAllSuccessorUses(*T.P, Call, CS);
  CS->Next = Call;

  LocUniverse U2 = LocUniverse::forProc(*T.P, *T.Prog);
  BitMatrix Sigma = computeMaySigma(*T.P, U2);
  std::optional<unsigned> Y = U2.varIndex(T.Prog->Names->lookup("y"));
  ASSERT_TRUE(Y.has_value());
  EXPECT_FALSE(Sigma[CS->Id].test(*Y));  // before the node: not yet saved
  EXPECT_TRUE(Sigma[Call->Id].test(*Y)); // at the call: saved
}

//===----------------------------------------------------------------------===//
// Dominators
//===----------------------------------------------------------------------===//

TEST(Dominators, DiamondAndLoop) {
  ProcUnderTest T = build(R"(
export f;
f(bits32 n) {
  bits32 s;
  s = 0;
loop:
  if n == 0 {
    s = s + 1;
  } else {
    s = s + 2;
  }
  n = n - 1;
  if n > 0 { goto loop; }
  return (s);
}
)",
                          "f");
  ASSERT_TRUE(T.P);
  DomInfo D = computeDominators(*T.P);
  Node *Entry = T.P->EntryPoint;
  Node *B0 = T.findNode(Node::Kind::Branch, 0); // the diamond head
  ASSERT_TRUE(B0);
  Node *Then = cast<BranchNode>(B0)->TrueDst;
  Node *Else = cast<BranchNode>(B0)->FalseDst;
  ASSERT_TRUE(Then && Else);
  ASSERT_NE(Then, Else);
  EXPECT_TRUE(D.dominates(Entry, B0));
  EXPECT_TRUE(D.dominates(B0, Then));
  EXPECT_TRUE(D.dominates(B0, Else));
  EXPECT_FALSE(D.dominates(Then, Else));
  // The join after the diamond is in both branches' dominance frontier.
  Node *Join = cast<AssignNode>(Then)->Next;
  ASSERT_TRUE(Join);
  auto InFrontier = [&](Node *N) {
    const auto &F = D.Frontier[N->Id];
    return std::find(F.begin(), F.end(), Join) != F.end();
  };
  EXPECT_TRUE(InFrontier(Then));
  EXPECT_TRUE(InFrontier(Else));
}

TEST(Dominators, ExceptionalEdgesReachHandlers) {
  ProcUnderTest T = build(handlerLiveSource(), "f");
  ASSERT_TRUE(T.P);
  DomInfo D = computeDominators(*T.P);
  // Every node, including the handler CopyIn, is reachable.
  for (Node *N : reachableNodes(*T.P))
    EXPECT_TRUE(D.isReachable(N)) << "n" << N->Id;
  // The call dominates the handler (the only way in is the cut edge).
  Node *Call = T.findNode(Node::Kind::Call);
  Node *Handler = nullptr;
  for (const auto &[Name, C] : cast<EntryNode>(T.P->EntryPoint)->Conts) {
    (void)Name;
    Handler = C;
  }
  ASSERT_TRUE(Call && Handler);
  EXPECT_TRUE(D.dominates(Call, Handler));
}

//===----------------------------------------------------------------------===//
// SSA numbering on a join
//===----------------------------------------------------------------------===//

TEST(Ssa, PhiAtJoinMergesBranchVersions) {
  ProcUnderTest T = build(R"(
export f;
f(bits32 n) {
  bits32 s;
  if n > 0 {
    s = 1;
  } else {
    s = 2;
  }
  return (s);
}
)",
                          "f");
  ASSERT_TRUE(T.P);
  SsaNumbering Ssa = computeSsa(*T.P, *T.Prog);
  std::optional<unsigned> S =
      Ssa.Universe.varIndex(T.Prog->Names->lookup("s"));
  ASSERT_TRUE(S.has_value());
  // Some node carries a phi for s with two distinct incoming versions.
  bool FoundPhi = false;
  for (size_t Id = 0; Id < T.P->Nodes.size(); ++Id)
    for (const SsaNumbering::Phi &Phi : Ssa.Phis[Id])
      if (Phi.Loc == *S && Phi.Args.size() >= 2 &&
          Phi.Args[0] != Phi.Args[1]) {
        FoundPhi = true;
        EXPECT_NE(Phi.Result, Phi.Args[0]);
        EXPECT_NE(Phi.Result, Phi.Args[1]);
      }
  EXPECT_TRUE(FoundPhi);
}

} // namespace
