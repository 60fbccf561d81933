//===- tests/CompileCostTest.cpp - Exact compile-stage work counters ------===//
//
// Part of cmmex (see DESIGN.md). The compile pipeline's cost, gated by
// counts rather than a clock: this binary replaces the global operator new,
// counts every heap allocation made inside one compile stage over a fixed
// corpus, and asserts a committed ceiling per stage: the front end
// (compileProgram: parse, sema, translate and link, standard library
// included), optimizeProgram, and compileToBytecode. The counts are
// deterministic (single thread, fixed seed), so the gates give the same
// verdict on any host and under any load.
//
// The corpus is the first CorpusSize programs of cmmbench's compile_churn
// corpus at seed 1 (same generator draws), optimized with the options that
// workload gives them.
//
//===----------------------------------------------------------------------===//

#include "costmodel/DispatchWorkloads.h"
#include "costmodel/RandomProgram.h"
#include "ir/Serialize.h"
#include "ir/Translate.h"
#include "opt/PassManager.h"
#include "support/Rng.h"
#include "vm/Bytecode.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> Counting{false};
std::atomic<uint64_t> Allocs{0};
std::atomic<uint64_t> AllocBytes{0};

void *countedAlloc(size_t N) {
  if (Counting.load(std::memory_order_relaxed)) {
    Allocs.fetch_add(1, std::memory_order_relaxed);
    AllocBytes.fetch_add(N, std::memory_order_relaxed);
  }
  if (void *P = std::malloc(N ? N : 1))
    return P;
  std::abort();
}

} // namespace

void *operator new(size_t N) { return countedAlloc(N); }
void *operator new[](size_t N) { return countedAlloc(N); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }

using namespace cmm;

namespace {

constexpr size_t CorpusSize = 512;

struct Item {
  std::string Source;
  bool Optimize = false;
  OptOptions Opt;
};

/// compile_churn's makeCorpus (cmmbench/CompileChurn.cpp), truncated to
/// \p Size programs.
std::vector<Item> makeCorpus(uint64_t Seed, size_t Size = CorpusSize) {
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 0x636f6d70);
  std::vector<Item> Corpus(Size);
  for (size_t K = 0; K < Size; ++K) {
    RandomProgramOptions O;
    O.NumProcs = 2 + unsigned(K % 11);
    O.Strategy = AllDispatchTechniques[K % std::size(AllDispatchTechniques)];
    Corpus[K].Source = generateRandomProgram(R.next(), O);
    Corpus[K].Optimize = R.chance(1, 2);
    Corpus[K].Opt.PlaceCalleeSaves = Corpus[K].Optimize && R.chance(1, 4);
    R.below(6); // the workload's input draw
  }
  return Corpus;
}

struct Cost {
  uint64_t Programs = 0, Allocs = 0, Bytes = 0;
};

Cost measure() {
  Cost C;
  for (const Item &It : makeCorpus(1)) {
    if (!It.Optimize)
      continue;
    DiagnosticEngine Diags;
    std::unique_ptr<IrProgram> Prog = compileProgram({It.Source}, Diags);
    if (!Prog) {
      ADD_FAILURE() << Diags.str();
      continue;
    }
    uint64_t A0 = Allocs.load(), B0 = AllocBytes.load();
    Counting.store(true);
    OptReport R = optimizeProgram(*Prog, It.Opt);
    Counting.store(false);
    C.Allocs += Allocs.load() - A0;
    C.Bytes += AllocBytes.load() - B0;
    ++C.Programs;
  }
  return C;
}

/// Allocations inside optimizeProgram over this corpus before the optimizer
/// moved to worklist solvers over flat storage (round-robin solvers, a heap
/// vector per bit set and per lattice state).
constexpr uint64_t RoundRobinAllocs = 10758926;
/// The gate: at most a tenth of that.
constexpr uint64_t AllocCeiling = RoundRobinAllocs / 10;

TEST(OptCost, AllocationsInsideOptimizeProgramStayUnderCeiling) {
  Cost C = measure();
  ASSERT_GT(C.Programs, 0u);
  std::printf("optimizeProgram: %llu programs, %llu allocations "
              "(%.1f per program), %llu bytes\n",
              (unsigned long long)C.Programs, (unsigned long long)C.Allocs,
              double(C.Allocs) / double(C.Programs),
              (unsigned long long)C.Bytes);
  EXPECT_LE(C.Allocs, AllocCeiling);
}

TEST(OptCost, CountIsDeterministic) {
  EXPECT_EQ(measure().Allocs, measure().Allocs);
}

/// Allocations inside compileProgram (front end) and compileToBytecode over
/// the whole corpus: every program is compiled, the optimized half is
/// optimized (uncounted) before its bytecode compile, as in the workload.
struct StageCosts {
  Cost Front, Bytecode;
};

StageCosts measureStages() {
  StageCosts C;
  for (const Item &It : makeCorpus(1)) {
    std::vector<std::string> Sources{It.Source};
    DiagnosticEngine Diags;
    uint64_t A0 = Allocs.load(), B0 = AllocBytes.load();
    Counting.store(true);
    std::unique_ptr<IrProgram> Prog = compileProgram(Sources, Diags);
    Counting.store(false);
    C.Front.Allocs += Allocs.load() - A0;
    C.Front.Bytes += AllocBytes.load() - B0;
    ++C.Front.Programs;
    if (!Prog) {
      ADD_FAILURE() << Diags.str();
      continue;
    }
    if (It.Optimize)
      optimizeProgram(*Prog, It.Opt);
    A0 = Allocs.load();
    B0 = AllocBytes.load();
    Counting.store(true);
    CompiledProgram Bc = compileToBytecode(*Prog);
    Counting.store(false);
    C.Bytecode.Allocs += Allocs.load() - A0;
    C.Bytecode.Bytes += AllocBytes.load() - B0;
    ++C.Bytecode.Programs;
  }
  return C;
}

void print(const char *Stage, const Cost &C) {
  std::printf("%s: %llu programs, %llu allocations (%.1f per program), "
              "%llu bytes\n",
              Stage, (unsigned long long)C.Programs,
              (unsigned long long)C.Allocs,
              double(C.Allocs) / double(C.Programs),
              (unsigned long long)C.Bytes);
}

/// Allocations inside compileProgram over this corpus before the front end
/// moved to source-view tokens, an open-addressed interner and one arena per
/// module (a heap node per AST node, vector and interned name).
constexpr uint64_t HeapAstFrontAllocs = 1314072;
/// The front-end gate: at most a fifth of that. IrProc::Nodes keeps one heap
/// node per graph node, over half of what remains.
constexpr uint64_t FrontAllocCeiling = HeapAstFrontAllocs / 5;
/// Allocations inside compileToBytecode over this corpus (unchanged by the
/// front-end rework); the gate keeps it from growing.
constexpr uint64_t BytecodeAllocCeiling = 416071;

TEST(FrontCost, AllocationsInsideCompileProgramStayUnderCeiling) {
  StageCosts C = measureStages();
  ASSERT_GT(C.Front.Programs, 0u);
  print("compileProgram", C.Front);
  EXPECT_LE(C.Front.Allocs, FrontAllocCeiling);
}

TEST(BytecodeCost, AllocationsInsideCompileToBytecodeStayUnderCeiling) {
  StageCosts C = measureStages();
  ASSERT_GT(C.Bytecode.Programs, 0u);
  print("compileToBytecode", C.Bytecode);
  EXPECT_LE(C.Bytecode.Allocs, BytecodeAllocCeiling);
}

TEST(FrontCost, CountsAreDeterministic) {
  StageCosts A = measureStages(), B = measureStages();
  EXPECT_EQ(A.Front.Allocs, B.Front.Allocs);
  EXPECT_EQ(A.Bytecode.Allocs, B.Bytecode.Allocs);
}

} // namespace
