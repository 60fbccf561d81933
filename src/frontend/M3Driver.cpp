//===- frontend/M3Driver.cpp ----------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "frontend/M3Driver.h"

#include "ir/Translate.h"
#include "ir/Validate.h"
#include "opt/PassManager.h"
#include "rts/Dispatchers.h"
#include "sem/Machine.h"

using namespace cmm;

std::unique_ptr<M3Program> cmm::buildM3(const std::string &Source,
                                        ExnPolicy Policy,
                                        DiagnosticEngine &Diags,
                                        bool Optimize) {
  std::optional<M3Compiled> Compiled = compileMiniM3(Source, Policy, Diags);
  if (!Compiled)
    return nullptr;
  std::unique_ptr<IrProgram> Prog =
      compileProgram({Compiled->CmmSource}, Diags);
  if (!Prog)
    return nullptr;
  if (Optimize) {
    OptOptions Opts;
    Opts.PlaceCalleeSaves = true;
    optimizeProgram(*Prog, Opts);
    DiagnosticEngine VDiags;
    if (!validateProgram(*Prog, VDiags)) {
      Diags.error(SourceLoc(), "optimizer produced an invalid graph:\n" +
                                   VDiags.str());
      return nullptr;
    }
  }
  auto Out = std::make_unique<M3Program>();
  Out->Prog = std::move(Prog);
  Out->Policy = Policy;
  Out->CmmSource = std::move(Compiled->CmmSource);
  return Out;
}

M3RunResult cmm::runM3(const M3Program &P, uint64_t Input,
                       uint64_t MaxSteps) {
  M3RunResult R;
  Machine M(*P.Prog);
  M.start("m3main", {Value::bits(32, Input)});

  DispatcherHolder D(M, P.Policy == ExnPolicy::RuntimeUnwinding
                           ? DispatcherKind::Unwind
                           : DispatcherKind::None);
  MachineStatus St = runWithRuntime(M, std::ref(D), MaxSteps);
  R.DispatcherRuns = D.dispatches();
  R.ActivationsWalked = D.walkStats().ActivationsVisited;

  R.MachineStats = M.stats();
  if (St != MachineStatus::Halted) {
    R.WrongReason = M.wrongReason();
    return R;
  }
  const std::vector<Value> &Out = M.argArea();
  if (Out.size() != 2) {
    R.WrongReason = "m3main returned an unexpected number of values";
    return R;
  }
  R.Ok = true;
  R.UnhandledExn = Out[0].Raw == 1;
  R.Value = Out[1].Raw;
  return R;
}
