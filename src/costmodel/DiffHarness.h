//===- costmodel/DiffHarness.h - Differential testing -----------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle behind the `cmmdiff` tool and the `diff_tests`
/// suite. One seed is rendered under every dispatch strategy
/// (RandomProgram.h) and compiled under every optimizer configuration; the
/// paper's central claim — one IR, four exception implementations, one
/// optimizer — predicts that every (strategy, configuration) cell computes
/// the same answer. The harness checks:
///
///  - cross-strategy agreement of the unoptimized renderings (final values,
///    goes-wrong outcomes with matching reasons);
///  - per-strategy agreement of every optimizer configuration with that
///    strategy's unoptimized reference (when the reference halts; a program
///    that goes wrong has unspecified behaviour, so the optimizer owes it
///    nothing);
///  - Machine::stats() invariants that characterize each technique (e.g.
///    the compiled-unwinding rendering must never yield or cut);
///  - structural IR validity after every single pass execution;
///  - the printer round trip (print . parse . print is a fixed point), so
///    every reproducer the minimizer writes is guaranteed loadable;
///  - the artifact serialization round trip (ir/Serialize.h, ir/IlText.h):
///    the canonical binary encoding must be a fixed point of
///    serialize . deserialize and the textual IL a fixed point of
///    print . parse, so every program the persistent cache stores is
///    guaranteed to read back as the identical program.
///
/// The `also`-edges-dropped ablation is part of the matrix and MUST diverge
/// on some seeds (Table 3); its divergences are recorded as Expected and
/// never fail a run.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_COSTMODEL_DIFFHARNESS_H
#define CMM_COSTMODEL_DIFFHARNESS_H

#include "costmodel/RandomProgram.h"
#include "opt/PassManager.h"
#include "sem/Machine.h"

#include <optional>
#include <string>
#include <vector>

namespace cmm::engine {
class Engine;
} // namespace cmm::engine

namespace cmm {

/// One optimizer configuration of the differential matrix.
struct DiffOptConfig {
  std::string Name;
  /// False for the unoptimized reference cell.
  bool Optimize = false;
  OptOptions Opts;
  /// True for the Table 3 ablation: its divergences are expected and do
  /// not fail the run — in fact the harness *wants* to see them.
  bool ExpectDivergence = false;
};

/// The matrix columns: unoptimized reference, each scalar pass alone,
/// callee-saves alone, the full pipeline, and the full pipeline without
/// `also` edges (the ablation).
std::vector<DiffOptConfig> diffOptConfigs();

/// Observed outcome of running one rendering of one seed on one input.
struct DiffOutcome {
  MachineStatus Status = MachineStatus::Idle;
  std::vector<Value> Results; ///< the argument area after Halted
  std::string WrongReason;    ///< after Wrong
  SourceLoc WrongLoc;         ///< after Wrong; compared across backends only
  Stats MachineStats;

  bool comparable(const DiffOutcome &O) const;
  std::string str() const;
};

/// One disagreement found while checking a seed.
struct DiffDivergence {
  uint64_t Seed = 0;
  DispatchTechnique Strategy = DispatchTechnique::CutGenerated;
  std::string Config; ///< optimizer configuration, or a check label
  bool Expected = false;
  std::string Detail;

  std::string str() const;
};

/// Harness parameters. Gen.Strategy is ignored — the harness renders every
/// strategy itself.
struct DiffOptions {
  RandomProgramOptions Gen;
  /// main(x) inputs tried per rendering.
  std::vector<uint64_t> Inputs = {0, 1, 3, 7, 12, 100};
  /// Step budget per resume segment; generated programs are loop-bounded
  /// and finish far below this, so hitting it marks the seed inconclusive
  /// rather than divergent.
  uint64_t MaxSteps = 2000000;
  bool CheckStats = true;
  bool CheckRoundTrip = true;
  /// Check the artifact serialization oracles on compiled cells: binary
  /// serialize-deserialize-serialize must be byte-identical and the textual
  /// IL print-parse-print a fixed point. Bounded to the unoptimized
  /// reference and full-pipeline configurations of each strategy.
  bool CheckSerialize = true;
  /// Run every cell on the bytecode VM and the threaded tier as well and
  /// require the full observable outcome — status, results, goes-wrong
  /// reason, and every Stats counter — to match the tree walker's.
  bool CheckVm = true;
  /// Scheduled-vs-direct dimension: render each strategy's computation a
  /// second time wrapped for the green-threads scheduler
  /// (RandomProgramOptions::Scheduled) and run it as a one-thread schedule
  /// on a single driver. The schedule's status, results, and goes-wrong
  /// reason must match the direct unoptimized reference run; machine
  /// counters are excluded (the spawn/join wrapper adds steps and yields
  /// by design). Bounded to the unoptimized configuration.
  bool CheckScheduled = false;
  /// When set, (strategy, configuration) cells compile through this
  /// engine's content-hash artifact cache — one IR (and one bytecode)
  /// compile per cell, shared across inputs, backends, and any other
  /// thread sweeping the same corpus. Null compiles each cell uncached.
  engine::Engine *Eng = nullptr;
};

/// Everything the harness learned about one seed.
struct DiffSeedResult {
  uint64_t Seed = 0;
  unsigned RunsExecuted = 0;
  std::vector<DiffDivergence> Divergences; ///< expected and unexpected

  bool hasUnexpected() const;
  /// The ablation produced at least one (expected) divergence.
  bool ablationDiverged() const;
};

/// Runs the full strategy x configuration x input matrix for one seed.
DiffSeedResult diffTestSeed(uint64_t Seed, const DiffOptions &Opts = {});

/// A shrunk failing case, ready to check in under tests/.
struct DiffRepro {
  uint64_t Seed = 0;
  RandomProgramOptions Gen; ///< minimized generator options
  DispatchTechnique Strategy = DispatchTechnique::CutGenerated;
  std::string Config;
  std::string Detail;
  /// The reproducer: a header comment recording seed, options and the
  /// divergence, followed by the rendered C-- module.
  std::string Source;
};

/// Greedy options-space minimizer: shrinks the generator parameters while
/// the seed keeps diverging (matching the unexpected/expected class of the
/// original divergence), then renders the smallest still-failing program.
/// Returns nullopt when the seed does not diverge at all.
std::optional<DiffRepro> minimizeDivergence(uint64_t Seed,
                                            const DiffOptions &Opts = {});

} // namespace cmm

#endif // CMM_COSTMODEL_DIFFHARNESS_H
