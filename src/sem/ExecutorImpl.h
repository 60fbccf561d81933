//===- sem/ExecutorImpl.h - The cut and Yield rules, once -------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rules that act on the stack of suspended activations, written once
/// over any frame representation: start, the cut rule (cut to, and the
/// run-time system's cut), and the Yield unwind and resume rules of
/// Section 5.2. Every backend derives from ExecutorImpl<Self, FrameT>
/// (CRTP), so the rules run without a virtual call, and supplies these
/// hooks:
///
///   void enterProc(const IrProc *P, SourceLoc Loc);
///       enter P with a fresh activation (goes wrong when it has no body);
///   void dropFrame(FrameT &F);
///       F leaves the stack without being resumed (cut over or unwound);
///   void restoreFrame(FrameT &F);
///       make F's activation current: ρ, σ (callee-saves included), uid,
///       procedure;
///   void killSigma();
///       unbind the current activation's callee-saves variables (a cut
///       does not restore them) and empty σ;
///   void setControl(const Node *N);
///       continue at N in the current procedure.
///
/// FrameT has at least the members CallSite, Proc and Uid.
///
/// The member definitions below are instantiated once per backend, in its
/// own source file (`template class ExecutorImpl<...>`); the backend's
/// header declares that instantiation `extern`.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SEM_EXECUTORIMPL_H
#define CMM_SEM_EXECUTORIMPL_H

#include "sem/Executor.h"
#include "sem/Observer.h"
#include "support/Assert.h"

#include <algorithm>

namespace cmm {

template <typename Self, typename FrameT>
class ExecutorImpl : public Executor {
public:
  void start(std::string_view ProcName, std::vector<Value> Args = {}) final;

  size_t stackDepth() const final { return Stack.size(); }
  const CallNode *frameCallSite(size_t I) const final {
    return fromTop(I).CallSite;
  }
  const IrProc *frameProc(size_t I) const final { return fromTop(I).Proc; }

  bool rtUnwindTop(size_t Count) final;
  bool rtResume(const ResumeChoice &Choice, std::vector<Value> Params) final;

protected:
  using Executor::Executor;

  /// The cut rule: transfers control to the continuation \p ContVal,
  /// removing every activation above its own. \p FromNode is the cut to
  /// statement, or null for the run-time system's cut. False after going
  /// wrong.
  bool doCutTo(const Value &ContVal, const CutToNode *FromNode);

  /// S: the stack of suspended activations, the top at the back.
  std::vector<FrameT> Stack;

private:
  Self &self() { return static_cast<Self &>(*this); }
  const FrameT &fromTop(size_t I) const { return Stack[Stack.size() - 1 - I]; }
};

template <typename Self, typename FrameT>
void ExecutorImpl<Self, FrameT>::start(std::string_view ProcName,
                                      std::vector<Value> Args) {
  Symbol Sym = Prog.Names->lookup(ProcName);
  if (!Sym) {
    // Before any state is reset: a failed start on a fresh executor leaves
    // it Wrong.
    wrongUnknownStart(ProcName);
    return;
  }
  Stack.clear();
  const IrProc *P = loadForStart(Sym);
  if (!P)
    return;
  A = std::move(Args);
  self().enterProc(P, SourceLoc());
  if (Obs && St == MachineStatus::Running)
    Obs->onStart(*this, P);
}

template <typename Self, typename FrameT>
bool ExecutorImpl<Self, FrameT>::doCutTo(const Value &ContVal,
                                        const CutToNode *FromNode) {
  SourceLoc Loc = FromNode ? FromNode->Loc : SourceLoc();
  const ContRecord *Rec = decodeCont(ContVal);
  if (!Rec) {
    wrongCutToNonCont(ContVal, Loc);
    return false;
  }

  // Cut to a continuation of the current activation: permitted only when the
  // cut to statement itself carries an `also cuts to` naming it.
  if (FromNode && Rec->Uid == Uid) {
    if (std::find(FromNode->AlsoCutsTo.begin(), FromNode->AlsoCutsTo.end(),
                  Rec->Target) == FromNode->AlsoCutsTo.end()) {
      wrongSameActivationCutUnlisted(Loc);
      return false;
    }
    self().killSigma(); // callee-saves values are not restored by a cut
    self().setControl(Rec->Target);
    ++S.Cuts;
    if (Obs)
      Obs->onCut(*this, FromNode, Rec->Proc, 0, /*SameActivation=*/true);
    return true;
  }

  // Remove activations until the target's frame is on top. Each removed
  // frame's suspended call must be annotated `also aborts`.
  uint64_t Discarded = 0;
  while (!Stack.empty() && Stack.back().Uid != Rec->Uid) {
    if (!Stack.back().CallSite->Bundle.Abort) {
      wrongCutPastNonAborting(Loc);
      return false;
    }
    if (Obs)
      Obs->onCutFrameDiscarded(*this, Stack.back().CallSite,
                               Stack.back().Proc);
    self().dropFrame(Stack.back());
    Stack.pop_back();
    ++S.FramesCutOver;
    ++Discarded;
  }
  if (Stack.empty()) {
    wrongCutToDeadCont(Loc);
    return false;
  }

  FrameT F = std::move(Stack.back());
  Stack.pop_back();
  const ContBundle &B = F.CallSite->Bundle;
  if (std::find(B.CutsTo.begin(), B.CutsTo.end(), Rec->Target) ==
      B.CutsTo.end()) {
    wrongCutToUnlisted(Loc);
    return false;
  }
  self().restoreFrame(F);
  self().killSigma(); // cuts do not restore callee-saves registers
  self().setControl(Rec->Target);
  ++S.Cuts;
  if (Obs)
    Obs->onCut(*this, FromNode, Rec->Proc, Discarded,
               /*SameActivation=*/false);
  return true;
}

//===----------------------------------------------------------------------===//
// Run-time-system substrate (the checked Yield transitions)
//===----------------------------------------------------------------------===//

template <typename Self, typename FrameT>
bool ExecutorImpl<Self, FrameT>::rtUnwindTop(size_t Count) {
  if (St != MachineStatus::Suspended) {
    wrongUnwindNotSuspended();
    return false;
  }
  for (size_t I = 0; I < Count; ++I) {
    if (Stack.empty()) {
      wrongUnwindPastBottom();
      return false;
    }
    if (!Stack.back().CallSite->Bundle.Abort) {
      wrongUnwindPastNonAborting(Stack.back().CallSite->Loc);
      return false;
    }
    if (Obs)
      Obs->onUnwindPop(*this, Stack.back().CallSite, Stack.back().Proc,
                       /*Resumed=*/false);
    self().dropFrame(Stack.back());
    Stack.pop_back();
    ++S.UnwindPops;
  }
  return true;
}

template <typename Self, typename FrameT>
bool ExecutorImpl<Self, FrameT>::rtResume(const ResumeChoice &Choice,
                                         std::vector<Value> Params) {
  if (St != MachineStatus::Suspended) {
    wrongResumeNotSuspended();
    return false;
  }
  std::optional<unsigned> Expected = resumeParamCount(Choice);
  if (!Expected) {
    wrongInvalidResumption();
    return false;
  }
  if (Params.size() != *Expected) {
    wrongResumeParamCount(Params.size(), *Expected);
    return false;
  }

  if (Choice.K == ResumeChoice::Kind::Cut) {
    St = MachineStatus::Running; // doCutTo acts from the running state
    if (!doCutTo(Choice.ContValue, nullptr))
      return false;
    A = std::move(Params);
    return true;
  }

  // resumeParamCount accepts a Return or Unwind only against a top frame.
  assert(!Stack.empty() && "resumption choice accepted with an empty stack");
  FrameT F = std::move(Stack.back());
  Stack.pop_back();
  const ContBundle &B = F.CallSite->Bundle;
  Node *Target = Choice.K == ResumeChoice::Kind::Return
                     ? B.ReturnsTo[Choice.Index]
                     : B.UnwindsTo[Choice.Index];
  // This transition restores callee-saves registers: the full saved
  // environment comes back.
  self().restoreFrame(F);
  self().setControl(Target);
  A = std::move(Params);
  if (Choice.K == ResumeChoice::Kind::Unwind) {
    ++S.UnwindPops;
    if (Obs)
      Obs->onUnwindPop(*this, F.CallSite, F.Proc, /*Resumed=*/true);
  }
  St = MachineStatus::Running;
  if (Obs)
    Obs->onResume(*this, Choice.K, Choice.Index);
  return true;
}

} // namespace cmm

#endif // CMM_SEM_EXECUTORIMPL_H
