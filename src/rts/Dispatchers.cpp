//===- rts/Dispatchers.cpp ------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "rts/Dispatchers.h"

#include "sem/Observer.h"

using namespace cmm;

YieldRequest cmm::readYieldRequest(const Executor &T) {
  YieldRequest R;
  if (T.status() != MachineStatus::Suspended)
    return R;
  const std::vector<Value> &A = T.argArea();
  if (A.empty() || !A[0].isBits())
    return R;
  R.Tag = A[0].Raw;
  if (A.size() >= 2) {
    R.Arg = A[1];
    R.HasArg = true;
  }
  R.Valid = true;
  return R;
}

DispatchResult UnwindingDispatcher::dispatch() {
  YieldRequest Req = readYieldRequest(T);
  if (!Req.Valid)
    return DispatchResult::NotAnExn;
  ++Dispatches;

  // Annotate the yield so traces separate dispatcher work from mutator
  // work (the observer shows a "dispatch:unwind" span on its own track).
  MachineObserver *Obs = T.observer();
  if (Obs)
    Obs->onDispatchBegin(T, "unwind", Req.Tag);

  // The Figure 9 loop: walk activations, map each to its exception
  // descriptor, and unwind to the first handler whose tag matches.
  CmmRuntime Rt(T);
  auto Done = [&](DispatchResult R) {
    accumulate(Rt.stats());
    if (Obs)
      Obs->onDispatchEnd(T, "unwind", R == DispatchResult::Handled,
                         Rt.stats().ActivationsVisited);
    return R;
  };
  Activation A;
  if (!Rt.firstActivation(A))
    return Done(DispatchResult::Unhandled);
  do {
    std::optional<Value> Desc = Rt.getDescriptor(A, 0);
    if (!Desc)
      continue;
    for (const ExnHandler &H :
         readExnDescriptor(T.memory(), Desc->Raw)) {
      if (H.ExnTag != Req.Tag)
        continue;
      if (!Rt.setActivation(A))
        return Done(DispatchResult::Unhandled);
      if (!Rt.setUnwindCont(H.ContNum))
        return Done(DispatchResult::Unhandled);
      if (H.TakesArg) {
        Value *Slot = Rt.findContParam(0);
        if (!Slot)
          return Done(DispatchResult::Unhandled);
        *Slot = Req.HasArg ? Req.Arg : Value::bits(32, 0);
      }
      if (!Rt.resume())
        return Done(DispatchResult::Unhandled);
      return Done(DispatchResult::Handled);
    }
  } while (Rt.nextActivation(A));
  return Done(DispatchResult::Unhandled); // Figure 9: abort(); dump core
}

DispatchResult CuttingDispatcher::dispatch() {
  YieldRequest Req = readYieldRequest(T);
  if (!Req.Valid)
    return DispatchResult::NotAnExn;
  ++Dispatches;

  MachineObserver *Obs = T.observer();
  if (Obs)
    Obs->onDispatchBegin(T, "cut", Req.Tag);
  // Constant-time dispatch: no stack walk, zero activations visited.
  auto Done = [&](DispatchResult R) {
    if (Obs)
      Obs->onDispatchEnd(T, "cut", R == DispatchResult::Handled, 0);
    return R;
  };

  // Pop the topmost handler continuation from the in-memory handler stack.
  std::optional<Value> Top = T.getGlobal("exn_top");
  if (!Top || Top->Raw == 0)
    return Done(DispatchResult::Unhandled);
  Value K = Value::bits(32, T.memory().loadBits(Top->Raw, 4));
  T.setGlobal("exn_top",
              Value::bits(Top->Width, Top->Raw - TargetInfo::pointerBytes()));

  CmmRuntime Rt(T);
  if (!Rt.setCutToCont(K))
    return Done(DispatchResult::Unhandled);
  if (Value *P0 = Rt.findContParam(0))
    *P0 = Value::bits(32, Req.Tag);
  if (Value *P1 = Rt.findContParam(1))
    *P1 = Req.HasArg ? Req.Arg : Value::bits(32, 0);
  if (!Rt.resume())
    return Done(DispatchResult::Unhandled);
  return Done(DispatchResult::Handled);
}

std::optional<DispatcherKind> cmm::parseDispatcherKind(std::string_view Name) {
  if (Name == "none")
    return DispatcherKind::None;
  if (Name == "unwind")
    return DispatcherKind::Unwind;
  if (Name == "cut")
    return DispatcherKind::Cut;
  return std::nullopt;
}

DispatchResult DispatcherHolder::dispatch(DispatcherKind K) {
  switch (K) {
  case DispatcherKind::Unwind:
    if (!Unw)
      Unw.emplace(T);
    return Unw->dispatch();
  case DispatcherKind::Cut:
    if (!Cut)
      Cut.emplace(T);
    return Cut->dispatch();
  case DispatcherKind::None:
    break;
  }
  return DispatchResult::Unhandled;
}
