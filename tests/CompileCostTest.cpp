//===- tests/CompileCostTest.cpp - Exact compile-stage work counters ------===//
//
// Part of cmmex (see DESIGN.md). The compile pipeline's cost, gated by
// counts rather than a clock: this binary replaces the global operator new,
// counts every heap allocation made inside one compile stage over a fixed
// corpus, and asserts a committed ceiling per stage: the front end
// (compileProgram: parse, sema, translate and link, standard library
// included), optimizeProgram, validateProgram and compileToBytecode; and
// the allocations to build an executor over a compiled artifact. The
// counts are deterministic (single thread, fixed seed), so the gates give
// the same verdict on any host and under any load.
//
// The corpus is the first CorpusSize programs of cmmbench's compile_churn
// corpus at seed 1 (same generator draws), optimized with the options that
// workload gives them.
//
//===----------------------------------------------------------------------===//

#include "costmodel/DispatchWorkloads.h"
#include "costmodel/RandomProgram.h"
#include "engine/Engine.h"
#include "ir/Serialize.h"
#include "ir/Translate.h"
#include "ir/Validate.h"
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

/// Adds what \p Stage allocates to \p C.
template <typename Fn> void count(Cost &C, Fn Stage) {
  uint64_t A0 = Allocs.load(), B0 = AllocBytes.load();
  Counting.store(true);
  Stage();
  Counting.store(false);
  C.Allocs += Allocs.load() - A0;
  C.Bytes += AllocBytes.load() - B0;
  ++C.Programs;
}

/// optimizeProgram, then validateProgram (as the cache's compile does),
/// over the optimized half of the corpus.
struct OptCosts {
  Cost Opt, Validate;
};

OptCosts measureOpt() {
  OptCosts C;
  for (const Item &It : makeCorpus(1)) {
    if (!It.Optimize)
      continue;
    DiagnosticEngine Diags;
    std::unique_ptr<IrProgram> Prog = compileProgram({It.Source}, Diags);
    if (!Prog) {
      ADD_FAILURE() << Diags.str();
      continue;
    }
    count(C.Opt, [&] { optimizeProgram(*Prog, It.Opt); });
    bool Valid = false;
    count(C.Validate, [&] { Valid = validateProgram(*Prog, Diags); });
    EXPECT_TRUE(Valid) << Diags.str();
  }
  return C;
}

Cost measure() { return measureOpt().Opt; }

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

/// Allocations inside validateProgram before it checked ownership by node
/// index (it built a hash set of each procedure's nodes).
constexpr uint64_t HashSetValidateAllocs = 96995;
/// The gate: at most a tenth of that.
constexpr uint64_t ValidateAllocCeiling = HashSetValidateAllocs / 10;

TEST(ValidateCost, AllocationsInsideValidateProgramStayUnderCeiling) {
  Cost C = measureOpt().Validate;
  ASSERT_GT(C.Programs, 0u);
  std::printf("validateProgram: %llu programs, %llu allocations "
              "(%.1f per program), %llu bytes\n",
              (unsigned long long)C.Programs, (unsigned long long)C.Allocs,
              double(C.Allocs) / double(C.Programs),
              (unsigned long long)C.Bytes);
  EXPECT_LE(C.Allocs, ValidateAllocCeiling);
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
    std::unique_ptr<IrProgram> Prog;
    count(C.Front, [&] { Prog = compileProgram(Sources, Diags); });
    if (!Prog) {
      ADD_FAILURE() << Diags.str();
      continue;
    }
    if (It.Optimize)
      optimizeProgram(*Prog, It.Opt);
    count(C.Bytecode, [&] { CompiledProgram Bc = compileToBytecode(*Prog); });
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
/// The front-end gate: at most a twentieth of that. Graph nodes and their
/// lists live in one arena per procedure, sized before translation.
constexpr uint64_t FrontAllocCeiling = HeapAstFrontAllocs / 20;
/// Allocations inside compileToBytecode over this corpus before the
/// compiler moved to per-program scratch storage, flat plan tables and a
/// symbol-indexed slot table.
constexpr uint64_t HashMapBytecodeAllocs = 416071;
/// The bytecode gate: at most a quarter of that.
constexpr uint64_t BytecodeAllocCeiling = HashMapBytecodeAllocs / 4;

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
  EXPECT_EQ(measureOpt().Validate.Allocs, measureOpt().Validate.Allocs);
}

/// An executor over an artifact whose compiled streams already exist: what
/// a service request pays per run and a green-thread schedule per spawn.
/// The executor object and, on the bytecode backends, its staging area;
/// no per-procedure index.
constexpr uint64_t ExecutorAllocCeiling = 2;

TEST(ExecutorCost, ConstructionOverACompiledArtifactStaysUnderCeiling) {
  engine::CompileRequest Req;
  Req.Sources = {makeCorpus(1, 1)[0].Source};
  std::shared_ptr<const engine::ProgramArtifact> A =
      engine::compileArtifact(Req);
  ASSERT_TRUE(A->ok());
  for (engine::Backend B : engine::AllBackends) {
    A->newExecutor(B); // builds the artifact's shared streams
    Cost C;
    count(C, [&] { std::unique_ptr<Executor> E = A->newExecutor(B); });
    std::printf("newExecutor(%s): %llu allocations\n",
                std::string(engine::backendName(B)).c_str(),
                (unsigned long long)C.Allocs);
    EXPECT_LE(C.Allocs, ExecutorAllocCeiling) << engine::backendName(B);
  }
}

} // namespace
