//===- tests/OptCostTest.cpp - Exact optimizer work counters --------------===//
//
// Part of cmmex (see DESIGN.md). The optimizer's cost, gated by a count
// rather than a clock: this binary replaces the global operator new, counts
// every heap allocation made inside optimizeProgram over a fixed corpus, and
// asserts a committed ceiling. The count is deterministic (single thread,
// fixed seed), so the gate gives the same verdict on any host and under any
// load.
//
// The corpus is the first CorpusSize programs of cmmbench's compile_churn
// corpus at seed 1 (same generator draws), optimized with the options that
// workload gives them.
//
//===----------------------------------------------------------------------===//

#include "costmodel/DispatchWorkloads.h"
#include "costmodel/RandomProgram.h"
#include "ir/Translate.h"
#include "opt/PassManager.h"
#include "support/Rng.h"

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

/// compile_churn's makeCorpus (cmmbench/CompileChurn.cpp), truncated.
std::vector<Item> makeCorpus(uint64_t Seed) {
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 0x636f6d70);
  std::vector<Item> Corpus(CorpusSize);
  for (size_t K = 0; K < CorpusSize; ++K) {
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

} // namespace
