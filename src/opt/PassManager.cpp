//===- opt/PassManager.cpp ------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "opt/PassManager.h"

#include "ir/Succ.h"
#include "ir/Validate.h"

#include <chrono>
#include <cstdio>

using namespace cmm;

const char *cmm::passName(PassId Id) {
  switch (Id) {
  case PassId::ConstProp:
    return "constprop";
  case PassId::CopyProp:
    return "copyprop";
  case PassId::DeadCode:
    return "deadcode";
  case PassId::CalleeSaves:
    return "calleesaves";
  }
  return "?";
}

namespace {

/// The IR size a pass delta is measured in: reachable nodes, and the
/// `also`-annotation edges among them.
struct IrSize {
  uint64_t Nodes = 0, AlsoEdges = 0;
};

/// One walk of the reachable graph, reusing \p Walk's storage.
IrSize measureIr(const IrProc &P, ReachScratch &Walk) {
  reachableNodes(P, Walk);
  IrSize Size;
  Size.Nodes = Walk.Order.size();
  for (const Node *N : Walk.Order)
    forEachSucc(*N, [&](Node *, EdgeKind K) {
      if (isExceptionalEdge(K))
        ++Size.AlsoEdges;
    });
  return Size;
}

} // namespace

uint64_t cmm::countAlsoEdges(const IrProc &P) {
  if (!P.EntryPoint || P.isYieldIntrinsic())
    return 0;
  ReachScratch Walk;
  return measureIr(P, Walk).AlsoEdges;
}

namespace {

using Clock = std::chrono::steady_clock;

/// Runs passes over one procedure, timing each one and recording its IR
/// delta. Nothing but a pass changes the IR, so the size after one pass is
/// the size before the next: each pass costs one walk of the graph.
class PassRunner {
public:
  PassRunner(OptReport &R, IrProc &P, const IrProgram &Prog,
             const OptOptions &Opts, ReachScratch &Walk)
      : R(R), P(P), Prog(Prog), Opts(Opts), Walk(Walk),
        Size(measureIr(P, Walk)) {}

  /// Runs one pass; \p Run returns the pass's own change count.
  template <typename Fn> void run(PassId Id, Fn Run) {
    IrSize Before = Size;
    Clock::time_point T0 = Clock::now();
    uint64_t Changes = Run();
    double Ms = std::chrono::duration<double, std::milli>(Clock::now() - T0)
                    .count();
    Size = measureIr(P, Walk);

    PassStat &S = R.pass(Id);
    ++S.Runs;
    S.Millis += Ms;
    S.Changes += Changes;
    S.NodesDelta +=
        static_cast<int64_t>(Size.Nodes) - static_cast<int64_t>(Before.Nodes);
    S.AlsoEdgesDelta += static_cast<int64_t>(Size.AlsoEdges) -
                        static_cast<int64_t>(Before.AlsoEdges);
    R.TotalMillis += Ms;

    if (Opts.Verbose)
      std::fprintf(stderr,
                   "[opt] %-11s %-20s %8.3f ms  changes=%-6llu "
                   "nodes=%llu->%llu also-edges=%llu->%llu\n",
                   passName(Id),
                   std::string(Prog.Names->spelling(P.Name)).c_str(), Ms,
                   (unsigned long long)Changes,
                   (unsigned long long)Before.Nodes,
                   (unsigned long long)Size.Nodes,
                   (unsigned long long)Before.AlsoEdges,
                   (unsigned long long)Size.AlsoEdges);

    if (Opts.ValidateEachPass) {
      DiagnosticEngine VDiags;
      if (!validateProc(P, *Prog.Names, VDiags, Walk))
        R.ValidationErrors.push_back(
            std::string(passName(Id)) + " broke " +
            std::string(Prog.Names->spelling(P.Name)) + ": " + VDiags.str());
    }
  }

private:
  OptReport &R;
  IrProc &P;
  const IrProgram &Prog;
  const OptOptions &Opts;
  ReachScratch &Walk;
  IrSize Size;
};

} // namespace

std::string cmm::optReportText(const OptReport &R) {
  std::string Out = "=== optimizer passes ===\n";
  Out += "        pass      runs    time(ms)   changes     nodes"
         "  also-edges\n";
  char Buf[160];
  for (size_t I = 0; I < NumPassIds; ++I) {
    const PassStat &S = R.Passes[I];
    std::snprintf(Buf, sizeof(Buf), "%12s %9llu %11.3f %9llu %+9lld %+11lld\n",
                  passName(static_cast<PassId>(I)),
                  (unsigned long long)S.Runs, S.Millis,
                  (unsigned long long)S.Changes, (long long)S.NodesDelta,
                  (long long)S.AlsoEdgesDelta);
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf), "total: %.3f ms, rewrites: cp=%u+%u "
                "copy=%u dce=%u cs=%u\n",
                R.TotalMillis, R.ConstProp.ExprsRewritten,
                R.ConstProp.BranchesResolved, R.CopyProp.UsesRewritten,
                R.DeadCode.AssignsRemoved, R.CalleeSaves.VarsPlaced);
  Out += Buf;
  return Out;
}

namespace {

OptReport optimizeProcWith(IrProc &P, const IrProgram &Prog,
                           const OptOptions &Opts, ReachScratch &Walk) {
  OptReport R;
  if (P.isYieldIntrinsic())
    return R;
  PassRunner Passes(R, P, Prog, Opts, Walk);
  for (unsigned Round = 0; Round < Opts.Rounds; ++Round) {
    ConstPropReport CP;
    if (Opts.RunConstProp) {
      Passes.run(PassId::ConstProp, [&] {
        CP = propagateConstants(P, Prog, Opts.WithExceptionalEdges);
        return uint64_t(CP.ExprsRewritten) + CP.BranchesResolved;
      });
      R.ConstProp.ExprsRewritten += CP.ExprsRewritten;
      R.ConstProp.BranchesResolved += CP.BranchesResolved;
    }

    CopyPropReport CopyP;
    if (Opts.RunCopyProp) {
      Passes.run(PassId::CopyProp, [&] {
        CopyP = propagateCopies(P, Prog, Opts.WithExceptionalEdges);
        return uint64_t(CopyP.UsesRewritten);
      });
      R.CopyProp.UsesRewritten += CopyP.UsesRewritten;
    }

    DeadCodeReport DC;
    if (Opts.RunDeadCode) {
      Passes.run(PassId::DeadCode, [&] {
        DC = eliminateDeadCode(P, Prog, Opts.WithExceptionalEdges);
        return uint64_t(DC.AssignsRemoved);
      });
      R.DeadCode.AssignsRemoved += DC.AssignsRemoved;
    }

    if (CP.ExprsRewritten == 0 && CP.BranchesResolved == 0 &&
        CopyP.UsesRewritten == 0 && DC.AssignsRemoved == 0)
      break;
  }
  if (Opts.PlaceCalleeSaves) {
    CalleeSavesOptions CS = Opts.CalleeSaves;
    CS.RespectCutEdges = CS.RespectCutEdges && Opts.WithExceptionalEdges;
    Passes.run(PassId::CalleeSaves, [&] {
      R.CalleeSaves = placeCalleeSaves(P, Prog, CS);
      return uint64_t(R.CalleeSaves.VarsPlaced);
    });
  }
  return R;
}

} // namespace

OptReport cmm::optimizeProc(IrProc &P, const IrProgram &Prog,
                            const OptOptions &Opts) {
  ReachScratch Walk;
  return optimizeProcWith(P, Prog, Opts, Walk);
}

OptReport cmm::optimizeProgram(IrProgram &Prog, const OptOptions &Opts) {
  OptReport Total;
  ReachScratch Walk;
  for (const std::unique_ptr<IrProc> &P : Prog.Procs) {
    OptReport R = optimizeProcWith(*P, Prog, Opts, Walk);
    Total.ConstProp.ExprsRewritten += R.ConstProp.ExprsRewritten;
    Total.ConstProp.BranchesResolved += R.ConstProp.BranchesResolved;
    Total.CopyProp.UsesRewritten += R.CopyProp.UsesRewritten;
    Total.DeadCode.AssignsRemoved += R.DeadCode.AssignsRemoved;
    Total.CalleeSaves.CallsAnnotated += R.CalleeSaves.CallsAnnotated;
    Total.CalleeSaves.VarsPlaced += R.CalleeSaves.VarsPlaced;
    Total.CalleeSaves.VarsExcludedByCutEdges +=
        R.CalleeSaves.VarsExcludedByCutEdges;
    Total.CalleeSaves.VarsSpilledForPressure +=
        R.CalleeSaves.VarsSpilledForPressure;
    Total.CalleeSaves.CutHazardFlushes += R.CalleeSaves.CutHazardFlushes;
    for (size_t I = 0; I < NumPassIds; ++I) {
      Total.Passes[I].Runs += R.Passes[I].Runs;
      Total.Passes[I].Millis += R.Passes[I].Millis;
      Total.Passes[I].Changes += R.Passes[I].Changes;
      Total.Passes[I].NodesDelta += R.Passes[I].NodesDelta;
      Total.Passes[I].AlsoEdgesDelta += R.Passes[I].AlsoEdgesDelta;
    }
    Total.TotalMillis += R.TotalMillis;
    for (std::string &E : R.ValidationErrors)
      Total.ValidationErrors.push_back(std::move(E));
  }
  return Total;
}
