//===- costmodel/DiffHarness.cpp ------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "costmodel/DiffHarness.h"

#include "engine/Engine.h"
#include "ir/IlText.h"
#include "ir/Serialize.h"
#include "rts/Dispatchers.h"
#include "sched/Scheduler.h"
#include "support/ByteIO.h"
#include "syntax/AstPrinter.h"
#include "syntax/Parser.h"

#include <functional>

using namespace cmm;

std::vector<DiffOptConfig> cmm::diffOptConfigs() {
  auto Base = [] {
    OptOptions O;
    O.ValidateEachPass = true;
    O.RunConstProp = O.RunCopyProp = O.RunDeadCode = false;
    return O;
  };
  std::vector<DiffOptConfig> Cs;
  Cs.push_back({"none", false, OptOptions(), false});
  {
    DiffOptConfig C{"constprop", true, Base(), false};
    C.Opts.RunConstProp = true;
    Cs.push_back(C);
  }
  {
    DiffOptConfig C{"copyprop", true, Base(), false};
    C.Opts.RunCopyProp = true;
    Cs.push_back(C);
  }
  {
    DiffOptConfig C{"deadcode", true, Base(), false};
    C.Opts.RunDeadCode = true;
    Cs.push_back(C);
  }
  {
    DiffOptConfig C{"calleesaves", true, Base(), false};
    C.Opts.PlaceCalleeSaves = true;
    Cs.push_back(C);
  }
  {
    DiffOptConfig C{"full", true, Base(), false};
    C.Opts.RunConstProp = C.Opts.RunCopyProp = C.Opts.RunDeadCode = true;
    C.Opts.PlaceCalleeSaves = true;
    Cs.push_back(C);
  }
  {
    // The Table 3 ablation: same full pipeline, `also` edges dropped from
    // every analysis. Soundness depends on those edges, so this column is
    // required to disagree on some seeds.
    DiffOptConfig C{"full-noedges", true, Base(), true};
    C.Opts.RunConstProp = C.Opts.RunCopyProp = C.Opts.RunDeadCode = true;
    C.Opts.PlaceCalleeSaves = true;
    C.Opts.WithExceptionalEdges = false;
    Cs.push_back(C);
  }
  return Cs;
}

bool DiffOutcome::comparable(const DiffOutcome &O) const {
  if (Status != O.Status)
    return false;
  switch (Status) {
  case MachineStatus::Halted:
    return Results == O.Results;
  case MachineStatus::Wrong:
    return WrongReason == O.WrongReason;
  default:
    return true;
  }
}

std::string DiffOutcome::str() const {
  switch (Status) {
  case MachineStatus::Halted: {
    std::string Out = "halted(";
    std::string Sep;
    for (const Value &V : Results) {
      Out += Sep + V.str();
      Sep = ", ";
    }
    return Out + ")";
  }
  case MachineStatus::Wrong:
    return "wrong: " + WrongReason;
  case MachineStatus::Suspended:
    return "suspended";
  case MachineStatus::Running:
    return "running (step budget)";
  case MachineStatus::Idle:
    return "idle";
  }
  return "?";
}

std::string DiffDivergence::str() const {
  std::string Out = "seed " + std::to_string(Seed) + " [" +
                    dispatchTechniqueName(Strategy) + " / " + Config + "]";
  if (Expected)
    Out += " (expected)";
  return Out + ": " + Detail;
}

bool DiffSeedResult::hasUnexpected() const {
  for (const DiffDivergence &D : Divergences)
    if (!D.Expected)
      return true;
  return false;
}

bool DiffSeedResult::ablationDiverged() const {
  for (const DiffDivergence &D : Divergences)
    if (D.Expected)
      return true;
  return false;
}

namespace {

/// Compiles one (strategy, configuration) cell: through \p Eng's
/// content-hash artifact cache when set (one compile per cell, shared by
/// every input and both backends), uncached otherwise. Failures travel
/// inside the artifact with the phase-prefixed errors the oracles match on.
std::shared_ptr<const engine::ProgramArtifact>
compileCell(const std::string &Src, const DiffOptConfig &Cfg,
            engine::Engine *Eng) {
  engine::CompileRequest Req;
  Req.Sources = {Src};
  Req.Optimize = Cfg.Optimize;
  Req.Opt = Cfg.Opts;
  return Eng ? Eng->compile(Req) : engine::compileArtifact(Req);
}

/// Runs one cell. With an engine, the run goes through Engine::runJob — the
/// same budgeted loop, but every cell then shows up in the engine's
/// metrics, lifecycle spans, and snapshot stream (runJob's per-resume-
/// segment fuel is exactly runWithRuntime's budget, so outcomes are
/// identical either way; the engineless path remains for harness callers
/// with no engine, e.g. the minimizer under test).
DiffOutcome runCell(const std::shared_ptr<const engine::ProgramArtifact> &Art,
                    engine::Backend B, DispatchTechnique T, uint64_t Input,
                    uint64_t MaxSteps, engine::Engine *Eng) {
  DiffOutcome O;
  if (Eng) {
    engine::Job J;
    J.Artifact = Art;
    J.B = B;
    J.Args = {Value::bits(32, Input)};
    J.MaxSteps = MaxSteps;
    J.Dispatcher = runtimeDispatcher(T);
    engine::JobResult R = Eng->runJob(J);
    O.Status = R.Status;
    O.MachineStats = R.MachineStats;
    if (R.Status == MachineStatus::Halted)
      O.Results = std::move(R.Results);
    else if (R.Status == MachineStatus::Wrong) {
      O.WrongReason = std::move(R.WrongReason);
      O.WrongLoc = R.WrongLoc;
    }
    return O;
  }
  std::unique_ptr<Executor> Exec = Art->newExecutor(B);
  Executor &M = *Exec;
  M.start("main", {Value::bits(32, Input)});
  DispatcherHolder D(M, runtimeDispatcher(T));
  MachineStatus St = runWithRuntime(M, std::ref(D), MaxSteps);
  O.Status = St;
  O.MachineStats = M.stats();
  if (St == MachineStatus::Halted)
    O.Results = M.argArea();
  else if (St == MachineStatus::Wrong) {
    O.WrongReason = M.wrongReason();
    O.WrongLoc = M.wrongLoc();
  }
  return O;
}

/// Runs the scheduled rendering of a cell as a one-green-thread schedule on
/// a single driver (deterministic), with the scheduler's exception
/// dispatch matching the strategy's runtime needs. The per-thread fuel is
/// the harness step budget, so a direct run that would exhaust its budget
/// maps to a fuel-exhausted schedule (Status Running) — inconclusive, like
/// the direct case.
DiffOutcome
runScheduledCell(const std::shared_ptr<const engine::ProgramArtifact> &Art,
                 engine::Backend B, DispatchTechnique T, uint64_t Input,
                 uint64_t MaxSteps) {
  sched::SchedOptions SO;
  SO.Drivers = 1;
  SO.SliceFuel = 4096; // small enough that slicing actually happens
  SO.MaxStepsPerThread = MaxSteps;
  SO.Exn = runtimeDispatcher(T);
  sched::Scheduler S([Art, B] { return Art->newExecutor(B); }, SO);
  sched::SchedResult R = S.run("main", {Value::bits(32, Input)});
  DiffOutcome O;
  O.Status = R.Status;
  O.Results = std::move(R.Results);
  O.WrongReason = std::move(R.WrongReason);
  O.WrongLoc = R.WrongLoc;
  O.MachineStats = R.MachineStats;
  return O;
}

/// Backend conformance: the bytecode VM must agree with the tree walker not
/// just on the answer but on the entire observable outcome, including every
/// cost counter. Returns a description of the first disagreement.
std::string compareBackends(const DiffOutcome &Walk, const DiffOutcome &Vm) {
  if (Walk.Status != Vm.Status)
    return "walk " + Walk.str() + " vs vm " + Vm.str();
  if (!Walk.comparable(Vm))
    return "walk " + Walk.str() + " vs vm " + Vm.str();
  // Both sides ran the same artifact, so a goes-wrong state must also be
  // reported at the same source location (comparable() checks the reason
  // only: the cross-strategy and scheduled renderings are other sources).
  if (Walk.Status == MachineStatus::Wrong && !(Walk.WrongLoc == Vm.WrongLoc))
    return "wrong at walk " + Walk.WrongLoc.str() + " vs vm " +
           Vm.WrongLoc.str() + ": " + Walk.WrongReason;
  const Stats &A = Walk.MachineStats, &B = Vm.MachineStats;
  auto Eq = [](uint64_t X, uint64_t Y, const char *Name) -> std::string {
    if (X == Y)
      return "";
    return std::string(Name) + ": walk " + std::to_string(X) + " vs vm " +
           std::to_string(Y);
  };
  std::string E;
  if (!(E = Eq(A.Steps, B.Steps, "Steps")).empty() ||
      !(E = Eq(A.Calls, B.Calls, "Calls")).empty() ||
      !(E = Eq(A.Jumps, B.Jumps, "Jumps")).empty() ||
      !(E = Eq(A.Returns, B.Returns, "Returns")).empty() ||
      !(E = Eq(A.Cuts, B.Cuts, "Cuts")).empty() ||
      !(E = Eq(A.FramesCutOver, B.FramesCutOver, "FramesCutOver")).empty() ||
      !(E = Eq(A.Yields, B.Yields, "Yields")).empty() ||
      !(E = Eq(A.UnwindPops, B.UnwindPops, "UnwindPops")).empty() ||
      !(E = Eq(A.ContsBound, B.ContsBound, "ContsBound")).empty() ||
      !(E = Eq(A.Loads, B.Loads, "Loads")).empty() ||
      !(E = Eq(A.Stores, B.Stores, "Stores")).empty() ||
      !(E = Eq(A.CalleeSaveMoves, B.CalleeSaveMoves, "CalleeSaveMoves"))
           .empty() ||
      !(E = Eq(A.MaxStackDepth, B.MaxStackDepth, "MaxStackDepth")).empty())
    return "stats diverge: " + E;
  return "";
}

/// Technique-characterizing stats invariants, checked on the unoptimized
/// reference run when it halts. Each dispatch technique leaves a distinct
/// fingerprint in the counters; a violation means a rendering used a
/// mechanism its column of Figure 2 forbids.
std::string checkStatsInvariants(DispatchTechnique T, const DiffOutcome &O) {
  const Stats &S = O.MachineStats;
  auto Zero = [&](uint64_t V, const char *What) -> std::string {
    if (V != 0)
      return std::string(What) + " = " + std::to_string(V) +
             " (must be 0 for " + dispatchTechniqueName(T) + ")";
    return "";
  };
  if (S.Steps == 0)
    return "halted with Steps == 0";
  if (S.MaxStackDepth < 1)
    return "halted with MaxStackDepth < 1";
  if (S.Returns > S.Calls)
    return "Returns (" + std::to_string(S.Returns) + ") > Calls (" +
           std::to_string(S.Calls) + ")";
  if (O.Results.size() != 1)
    return "main returned " + std::to_string(O.Results.size()) +
           " results (want 1)";
  std::string E;
  switch (T) {
  case DispatchTechnique::CutGenerated:
    if (!(E = Zero(S.Yields, "Yields")).empty())
      return E;
    return Zero(S.UnwindPops, "UnwindPops");
  case DispatchTechnique::CutRuntime:
    return Zero(S.UnwindPops, "UnwindPops");
  case DispatchTechnique::UnwindGenerated:
    if (!(E = Zero(S.Yields, "Yields")).empty())
      return E;
    if (!(E = Zero(S.Cuts, "Cuts")).empty())
      return E;
    if (!(E = Zero(S.UnwindPops, "UnwindPops")).empty())
      return E;
    return Zero(S.FramesCutOver, "FramesCutOver");
  case DispatchTechnique::UnwindRuntime:
    if (!(E = Zero(S.Cuts, "Cuts")).empty())
      return E;
    return Zero(S.FramesCutOver, "FramesCutOver");
  case DispatchTechnique::Cps:
    if (!(E = Zero(S.Yields, "Yields")).empty())
      return E;
    if (!(E = Zero(S.Cuts, "Cuts")).empty())
      return E;
    if (!(E = Zero(S.UnwindPops, "UnwindPops")).empty())
      return E;
    if (!(E = Zero(S.FramesCutOver, "FramesCutOver")).empty())
      return E;
    if (S.Jumps == 0)
      return "CPS rendering halted with Jumps == 0";
    return "";
  }
  return "";
}

/// Binary serialize . deserialize . serialize must be byte-identical: the
/// persistent cache (docs/ENGINE.md § "Persistent cache") relies on reading
/// back exactly the program it stored. Returns a description of the first
/// violation, "" when the encoding is a fixed point.
std::string checkBinaryRoundTrip(const IrProgram &P) {
  ByteWriter W1;
  serializeIr(P, W1);
  ByteReader R(W1.buffer().data(), W1.size());
  std::string Err;
  std::unique_ptr<IrProgram> Q = deserializeIr(R, &Err);
  if (!Q)
    return "canonical encoding does not deserialize: " + Err;
  ByteWriter W2;
  serializeIr(*Q, W2);
  if (W1.buffer() != W2.buffer())
    return "serialize . deserialize . serialize is not byte-identical (" +
           std::to_string(W1.size()) + " vs " + std::to_string(W2.size()) +
           " bytes)";
  return "";
}

/// Textual IL print . parse . print must be a fixed point, and the parsed
/// program must re-serialize to the same canonical binary bytes — the two
/// encodings are faithful to each other, not merely self-consistent.
std::string checkIlRoundTrip(const IrProgram &P) {
  std::string T1 = printIl(P);
  std::string Err;
  std::unique_ptr<IrProgram> Q = parseIl(T1, &Err);
  if (!Q)
    return "printed IL does not parse back: " + Err;
  std::string T2 = printIl(*Q);
  if (T1 != T2)
    return "printIl . parseIl . printIl is not a fixed point";
  ByteWriter W1, W2;
  serializeIr(P, W1);
  serializeIr(*Q, W2);
  if (W1.buffer() != W2.buffer())
    return "IL-parsed program serializes to different canonical bytes";
  return "";
}

/// print . parse must reach a fixed point in one step on generator output.
std::string checkRoundTrip(const std::string &Src) {
  DiagnosticEngine D1;
  Parser P1(Src, D1);
  Module M1 = P1.parseModule();
  if (D1.hasErrors())
    return "generated source does not parse: " + D1.str();
  std::string Printed1 = printModule(M1);
  DiagnosticEngine D2;
  Parser P2(Printed1, D2);
  Module M2 = P2.parseModule();
  if (D2.hasErrors())
    return "printed module does not re-parse: " + D2.str();
  std::string Printed2 = printModule(M2);
  if (Printed1 != Printed2)
    return "print/parse round trip is not a fixed point";
  return "";
}

} // namespace

DiffSeedResult cmm::diffTestSeed(uint64_t Seed, const DiffOptions &Opts) {
  DiffSeedResult R;
  R.Seed = Seed;
  const std::vector<DiffOptConfig> Configs = diffOptConfigs();
  const size_t NumCfg = Configs.size();
  const size_t NumIn = Opts.Inputs.size();

  auto Report = [&](DispatchTechnique T, const std::string &Cfg,
                    bool Expected, std::string Detail) {
    R.Divergences.push_back({Seed, T, Cfg, Expected, std::move(Detail)});
  };

  // Outcome[strategy][config][input]; absent when the cell failed to
  // compile (itself reported as a divergence).
  std::vector<std::vector<std::vector<std::optional<DiffOutcome>>>> Outcome;

  for (DispatchTechnique T : AllDispatchTechniques) {
    RandomProgramOptions G = Opts.Gen;
    G.Strategy = T;
    std::string Src = generateRandomProgram(Seed, G);

    if (Opts.CheckRoundTrip) {
      std::string E = checkRoundTrip(Src);
      if (!E.empty())
        Report(T, "round-trip", false, E);
    }

    Outcome.emplace_back();
    auto &ByCfg = Outcome.back();
    for (size_t C = 0; C < NumCfg; ++C) {
      ByCfg.emplace_back(NumIn);
      auto Art = compileCell(Src, Configs[C], Opts.Eng);
      if (!Art->ok()) {
        // The ablation may legitimately break the graph structurally
        // (dead-code elimination without cut edges can strand a
        // continuation); everything else must compile clean.
        Report(T, Configs[C].Name, Configs[C].ExpectDivergence, Art->error());
        continue;
      }
      if (Opts.CheckSerialize &&
          (Configs[C].Name == "none" || Configs[C].Name == "full")) {
        // The serialization oracles are per-program, not per-input, and
        // bounded to the reference and full-pipeline cells: they cover both
        // a raw and a fully-transformed IR per strategy without tripling
        // the cost of the sweep.
        std::string E = checkBinaryRoundTrip(*Art->program());
        if (!E.empty())
          Report(T, Configs[C].Name + "/serialize-roundtrip", false, E);
        E = checkIlRoundTrip(*Art->program());
        if (!E.empty())
          Report(T, Configs[C].Name + "/il-roundtrip", false, E);
      }
      for (size_t I = 0; I < NumIn; ++I) {
        ByCfg[C][I] = runCell(Art, engine::Backend::Walk, T, Opts.Inputs[I],
                              Opts.MaxSteps, Opts.Eng);
        ++R.RunsExecuted;
        if (Opts.CheckVm) {
          // Backend columns: the bytecode VM and the threaded tier on the
          // identical program. A divergence here is a backend bug, never an
          // expected ablation effect (all backends run the same — possibly
          // mis-optimized — IR, so they must still agree with each other).
          DiffOutcome Vm = runCell(Art, engine::Backend::Vm, T,
                                   Opts.Inputs[I], Opts.MaxSteps, Opts.Eng);
          ++R.RunsExecuted;
          std::string E = compareBackends(*ByCfg[C][I], Vm);
          if (!E.empty())
            Report(T, Configs[C].Name + "/vm", false,
                   "input " + std::to_string(Opts.Inputs[I]) + ": " + E);
          DiffOutcome Th = runCell(Art, engine::Backend::Threaded, T,
                                   Opts.Inputs[I], Opts.MaxSteps, Opts.Eng);
          ++R.RunsExecuted;
          E = compareBackends(*ByCfg[C][I], Th);
          if (!E.empty())
            Report(T, Configs[C].Name + "/threaded", false,
                   "input " + std::to_string(Opts.Inputs[I]) + ": " + E);
        }
      }
    }

    // Scheduled-vs-direct: the same computation spawned as a green thread
    // under the M:N scheduler must reproduce the direct unoptimized
    // reference outcome exactly (status, results, goes-wrong reason). A
    // divergence here is a scheduler bug — suspension capture, resume
    // plumbing, or exception dispatch inside a green thread.
    if (Opts.CheckScheduled) {
      RandomProgramOptions GS = G;
      GS.Scheduled = true;
      auto SchedArt =
          compileCell(generateRandomProgram(Seed, GS), Configs[0], Opts.Eng);
      if (!SchedArt->ok()) {
        Report(T, "scheduled/compile", false, SchedArt->error());
      } else {
        for (size_t I = 0; I < NumIn; ++I) {
          const auto &Ref = Outcome.back()[0][I];
          if (!Ref || Ref->Status == MachineStatus::Running)
            continue;
          DiffOutcome Sc = runScheduledCell(SchedArt, engine::Backend::Walk,
                                            T, Opts.Inputs[I], Opts.MaxSteps);
          ++R.RunsExecuted;
          if (Sc.Status == MachineStatus::Running)
            continue; // schedule fuel: inconclusive, not divergent
          if (!Ref->comparable(Sc))
            Report(T, "scheduled", false,
                   "input " + std::to_string(Opts.Inputs[I]) + ": direct " +
                       Ref->str() + " vs scheduled " + Sc.str());
        }
      }
    }
  }

  // Oracle 1: every strategy's unoptimized rendering agrees with the first
  // strategy's on every input.
  const size_t RefStrategy = 0, RefCfg = 0;
  for (size_t S = 1; S < Outcome.size(); ++S) {
    DispatchTechnique T = AllDispatchTechniques[S];
    for (size_t I = 0; I < NumIn; ++I) {
      const auto &A = Outcome[RefStrategy][RefCfg][I];
      const auto &B = Outcome[S][RefCfg][I];
      if (!A || !B)
        continue;
      if (A->Status == MachineStatus::Running ||
          B->Status == MachineStatus::Running)
        continue; // step budget: inconclusive, not divergent
      if (!A->comparable(*B))
        Report(T, "cross-strategy", false,
               "input " + std::to_string(Opts.Inputs[I]) + ": " +
                   dispatchTechniqueName(AllDispatchTechniques[RefStrategy]) +
                   " " + A->str() + " vs " + B->str());
    }
  }

  // Oracle 2: technique fingerprints in the machine counters.
  if (Opts.CheckStats) {
    for (size_t S = 0; S < Outcome.size(); ++S) {
      DispatchTechnique T = AllDispatchTechniques[S];
      for (size_t I = 0; I < NumIn; ++I) {
        const auto &O = Outcome[S][RefCfg][I];
        if (!O || O->Status != MachineStatus::Halted)
          continue;
        std::string E = checkStatsInvariants(T, *O);
        if (!E.empty())
          Report(T, "stats", false,
                 "input " + std::to_string(Opts.Inputs[I]) + ": " + E);
      }
    }
  }

  // Oracle 3: every optimizer configuration agrees with its own strategy's
  // unoptimized reference. A reference that goes wrong (or exhausts the
  // step budget) constrains nothing: optimizing a wrong program is not
  // required to preserve its behaviour.
  for (size_t S = 0; S < Outcome.size(); ++S) {
    DispatchTechnique T = AllDispatchTechniques[S];
    for (size_t C = 1; C < NumCfg; ++C) {
      for (size_t I = 0; I < NumIn; ++I) {
        const auto &Ref = Outcome[S][RefCfg][I];
        const auto &Opt = Outcome[S][C][I];
        if (!Ref || !Opt)
          continue;
        if (Ref->Status != MachineStatus::Halted)
          continue;
        if (Opt->Status == MachineStatus::Running)
          continue;
        if (!Ref->comparable(*Opt))
          Report(T, Configs[C].Name, Configs[C].ExpectDivergence,
                 "input " + std::to_string(Opts.Inputs[I]) + ": reference " +
                     Ref->str() + " vs optimized " + Opt->str());
      }
    }
  }

  return R;
}

//===----------------------------------------------------------------------===//
// Minimizer
//===----------------------------------------------------------------------===//

namespace {

/// Source-length cost of a candidate (sum over renderings so a shrink must
/// help globally, not shuffle text between strategies).
size_t candidateCost(uint64_t Seed, const RandomProgramOptions &G) {
  size_t Cost = 0;
  for (DispatchTechnique T : AllDispatchTechniques) {
    RandomProgramOptions O = G;
    O.Strategy = T;
    Cost += generateRandomProgram(Seed, O).size();
  }
  return Cost;
}

} // namespace

std::optional<DiffRepro> cmm::minimizeDivergence(uint64_t Seed,
                                                 const DiffOptions &Opts) {
  DiffSeedResult First = diffTestSeed(Seed, Opts);
  if (First.Divergences.empty())
    return std::nullopt;
  const bool WantUnexpected = First.hasUnexpected();

  auto StillFails = [&](const DiffOptions &Cand) {
    DiffSeedResult R = diffTestSeed(Seed, Cand);
    return WantUnexpected ? R.hasUnexpected() : R.ablationDiverged();
  };

  DiffOptions Best = Opts;
  // Greedy descent over the generator parameters: accept any mutation that
  // shrinks the rendered source while the divergence class survives.
  bool Progress = true;
  while (Progress) {
    Progress = false;
    std::vector<std::function<bool(RandomProgramOptions &)>> Mutations = {
        [](RandomProgramOptions &G) {
          if (G.NumProcs <= 2)
            return false;
          --G.NumProcs;
          return true;
        },
        [](RandomProgramOptions &G) {
          if (G.StmtsPerBlock == 0)
            return false;
          --G.StmtsPerBlock;
          return true;
        },
        [](RandomProgramOptions &G) {
          if (!G.UseCheckedDiv)
            return false;
          G.UseCheckedDiv = false;
          return true;
        },
        [](RandomProgramOptions &G) {
          if (!G.UsePrims)
            return false;
          G.UsePrims = false;
          return true;
        },
        [](RandomProgramOptions &G) {
          if (G.WrongChancePct == 0)
            return false;
          G.WrongChancePct = 0;
          return true;
        },
    };
    for (auto &Mut : Mutations) {
      DiffOptions Cand = Best;
      if (!Mut(Cand.Gen))
        continue;
      if (candidateCost(Seed, Cand.Gen) >= candidateCost(Seed, Best.Gen))
        continue;
      if (StillFails(Cand)) {
        Best = Cand;
        Progress = true;
      }
    }
  }

  DiffSeedResult Final = diffTestSeed(Seed, Best);
  const DiffDivergence *Pick = nullptr;
  for (const DiffDivergence &D : Final.Divergences) {
    if (WantUnexpected && D.Expected)
      continue;
    Pick = &D;
    break;
  }
  if (!Pick)
    return std::nullopt; // should not happen: StillFails guarded every step

  DiffRepro Repro;
  Repro.Seed = Seed;
  Repro.Gen = Best.Gen;
  Repro.Gen.Strategy = Pick->Strategy;
  Repro.Strategy = Pick->Strategy;
  Repro.Config = Pick->Config;
  Repro.Detail = Pick->Detail;
  Repro.Source =
      "/* cmmdiff reproducer\n"
      "   seed=" + std::to_string(Seed) +
      " strategy=" + dispatchTechniqueName(Pick->Strategy) +
      " config=" + Pick->Config + "\n" +
      "   procs=" + std::to_string(Best.Gen.NumProcs) +
      " stmts=" + std::to_string(Best.Gen.StmtsPerBlock) +
      " raise-pct=" + std::to_string(Best.Gen.RaiseChancePct) +
      " checked-div=" + (Best.Gen.UseCheckedDiv ? "1" : "0") +
      " prims=" + (Best.Gen.UsePrims ? "1" : "0") +
      " wrong-pct=" + std::to_string(Best.Gen.WrongChancePct) + "\n" +
      "   divergence: " + Pick->Detail + " */\n" +
      generateRandomProgram(Seed, Repro.Gen);
  return Repro;
}
