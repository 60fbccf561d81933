//===- obs/Profiler.cpp ---------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "obs/Profiler.h"

#include "obs/Json.h"

#include <algorithm>
#include <cstdio>

using namespace cmm;

std::string Profiler::procName(const Executor &M, const IrProc *P) {
  if (!P)
    return "?";
  auto It = ProcNames.find(P);
  if (It != ProcNames.end())
    return It->second;
  std::string Name(M.program().Names->spelling(P->Name));
  ProcNames.emplace(P, Name);
  return Name;
}

CallSiteProfile &Profiler::site(const Executor &M, const CallNode *Site,
                                const IrProc *Owner) {
  CallSiteProfile &P = Sites[Site];
  if (P.Owner.empty()) {
    P.Owner = procName(M, Owner);
    P.Loc = Site->Loc;
  }
  return P;
}

void Profiler::onStep(const Executor &M, const Node *N) {
  (void)N;
  ++Procs[M.currentProc()].Steps;
}

void Profiler::onCall(const Executor &M, const CallNode *Site,
                      const IrProc *Caller, const IrProc *Callee) {
  ++Procs[Caller].CallsOut;
  ++Procs[Callee].CallsIn;
  CallSiteProfile &S = site(M, Site, Caller);
  ++S.Calls;
  S.Callee = procName(M, Callee);
}

void Profiler::onJump(const Executor &M, const JumpNode *Site,
                      const IrProc *Caller, const IrProc *Callee) {
  (void)Site;
  ++Procs[Caller].JumpsOut;
  ++Procs[Callee].JumpsIn;
  (void)M;
}

void Profiler::onReturn(const Executor &M, const CallNode *Site,
                        const IrProc *Callee, const IrProc *Caller,
                        unsigned ContIndex) {
  ++Procs[Callee].Returns;
  CallSiteProfile &S = site(M, Site, Caller);
  // The normal return continuation is the last one; with n alternates the
  // bundle has n+1 entries and index n is "normal". Index semantics here:
  // ContIndex 0 with no alternates is normal too, so compare against the
  // bundle size.
  if (ContIndex + 1 == Site->Bundle.ReturnsTo.size())
    ++S.Returns;
  else
    ++S.AltReturns;
}

void Profiler::onCutFrameDiscarded(const Executor &M, const CallNode *Site,
                                   const IrProc *Owner) {
  ++Procs[Owner].FramesDiscarded;
  ++site(M, Site, Owner).CutsOver;
}

void Profiler::onCut(const Executor &M, const CutToNode *From,
                     const IrProc *Target, uint64_t FramesDiscarded,
                     bool SameActivation) {
  (void)From;
  (void)FramesDiscarded;
  (void)SameActivation;
  (void)M;
  ++Procs[Target].CutsLanded;
}

void Profiler::onYield(const Executor &M) {
  // Control sits in the yield intrinsic; attribute the raise to the
  // procedure that called yield (the topmost suspended frame).
  const IrProc *Raiser =
      M.stackDepth() > 0 ? M.frameProc(0) : M.currentProc();
  ++Procs[Raiser].Yields;
}

void Profiler::onUnwindPop(const Executor &M, const CallNode *Site,
                           const IrProc *Owner, bool Resumed) {
  (void)Resumed;
  ++Procs[Owner].UnwindPops;
  ++site(M, Site, Owner).UnwindPops;
  if (InDispatch)
    ++PopsThisDispatch;
}

void Profiler::onDispatchBegin(const Executor &M, std::string_view Dispatcher,
                               uint64_t Tag) {
  (void)M;
  (void)Dispatcher;
  (void)Tag;
  InDispatch = true;
  PopsThisDispatch = 0;
}

void Profiler::onDispatchEnd(const Executor &M, std::string_view Dispatcher,
                             bool Handled, uint64_t ActivationsVisited) {
  (void)M;
  (void)Dispatcher;
  ++Dispatch.Dispatches;
  if (Handled)
    ++Dispatch.Handled;
  Dispatch.ActivationsVisited += ActivationsVisited;
  Dispatch.ActivationsMax =
      std::max(Dispatch.ActivationsMax, ActivationsVisited);
  ++Dispatch.UnwindPopHistogram[PopsThisDispatch];
  InDispatch = false;
  PopsThisDispatch = 0;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

namespace {

std::string siteLabel(const CallSiteProfile &S) {
  std::string L = S.Owner + " @ " + S.Loc.str();
  if (!S.Callee.empty())
    L += " -> " + S.Callee;
  return L;
}

} // namespace

std::string Profiler::report() const {
  std::vector<std::pair<std::string, const ProcProfile *>> ProcRows;
  for (const auto &[P, Prof] : Procs) {
    auto It = ProcNames.find(P);
    ProcRows.emplace_back(It != ProcNames.end() ? It->second : "?", &Prof);
  }
  std::sort(ProcRows.begin(), ProcRows.end(), [](const auto &A,
                                                 const auto &B) {
    if (A.second->Steps != B.second->Steps)
      return A.second->Steps > B.second->Steps;
    return A.first < B.first;
  });

  std::vector<const CallSiteProfile *> SiteRows;
  for (const auto &[N, Prof] : Sites) {
    (void)N;
    SiteRows.push_back(&Prof);
  }
  std::sort(SiteRows.begin(), SiteRows.end(),
            [](const CallSiteProfile *A, const CallSiteProfile *B) {
              if (A->Calls != B->Calls)
                return A->Calls > B->Calls;
              return siteLabel(*A) < siteLabel(*B);
            });

  std::string Out;
  char Buf[256];
  Out += "=== cmmex profile ===\n";
  if (JobId != 0)
    Out += "job " + std::to_string(JobId) + "\n";
  Out += "procedures (sorted by steps):\n";
  Out += "       steps  calls-in calls-out     jumps   returns      cuts"
         "  cut-over   unwinds    yields  procedure\n";
  for (const auto &[Name, P] : ProcRows) {
    std::snprintf(Buf, sizeof(Buf),
                  "%12llu %9llu %9llu %9llu %9llu %9llu %9llu %9llu %9llu"
                  "  %s\n",
                  (unsigned long long)P->Steps,
                  (unsigned long long)P->CallsIn,
                  (unsigned long long)P->CallsOut,
                  (unsigned long long)(P->JumpsIn + P->JumpsOut),
                  (unsigned long long)P->Returns,
                  (unsigned long long)P->CutsLanded,
                  (unsigned long long)P->FramesDiscarded,
                  (unsigned long long)P->UnwindPops,
                  (unsigned long long)P->Yields, Name.c_str());
    Out += Buf;
  }
  Out += "call sites (sorted by calls):\n";
  Out += "       calls   returns  alt-rets  cut-over   unwinds  site\n";
  for (const CallSiteProfile *S : SiteRows) {
    std::snprintf(Buf, sizeof(Buf),
                  "%12llu %9llu %9llu %9llu %9llu  %s\n",
                  (unsigned long long)S->Calls,
                  (unsigned long long)S->Returns,
                  (unsigned long long)S->AltReturns,
                  (unsigned long long)S->CutsOver,
                  (unsigned long long)S->UnwindPops,
                  siteLabel(*S).c_str());
    Out += Buf;
  }
  if (Dispatch.Dispatches != 0) {
    double Mean = static_cast<double>(Dispatch.ActivationsVisited) /
                  static_cast<double>(Dispatch.Dispatches);
    std::snprintf(Buf, sizeof(Buf),
                  "dispatch: n=%llu handled=%llu activations"
                  " total=%llu max=%llu mean=%.2f\n",
                  (unsigned long long)Dispatch.Dispatches,
                  (unsigned long long)Dispatch.Handled,
                  (unsigned long long)Dispatch.ActivationsVisited,
                  (unsigned long long)Dispatch.ActivationsMax, Mean);
    Out += Buf;
    Out += "unwind pops per dispatch:";
    for (const auto &[Depth, Count] : Dispatch.UnwindPopHistogram) {
      std::snprintf(Buf, sizeof(Buf), " %llu:%llu",
                    (unsigned long long)Depth, (unsigned long long)Count);
      Out += Buf;
    }
    Out += "\n";
  }
  return Out;
}

void Profiler::writeJson(JsonWriter &W) const {
  std::vector<std::pair<std::string, const ProcProfile *>> ProcRows;
  for (const auto &[P, Prof] : Procs) {
    auto It = ProcNames.find(P);
    ProcRows.emplace_back(It != ProcNames.end() ? It->second : "?", &Prof);
  }
  std::sort(ProcRows.begin(), ProcRows.end(),
            [](const auto &A, const auto &B) {
              if (A.second->Steps != B.second->Steps)
                return A.second->Steps > B.second->Steps;
              return A.first < B.first;
            });
  std::vector<const CallSiteProfile *> SiteRows;
  for (const auto &[N, Prof] : Sites) {
    (void)N;
    SiteRows.push_back(&Prof);
  }
  std::sort(SiteRows.begin(), SiteRows.end(),
            [](const CallSiteProfile *A, const CallSiteProfile *B) {
              if (A->Calls != B->Calls)
                return A->Calls > B->Calls;
              return siteLabel(*A) < siteLabel(*B);
            });

  W.beginObject();
  if (JobId != 0)
    W.field("job", JobId);
  W.key("procs");
  W.beginArray();
  for (const auto &[Name, P] : ProcRows) {
    W.beginObject();
    W.field("proc", std::string_view(Name));
    W.field("steps", P->Steps).field("calls_in", P->CallsIn);
    W.field("calls_out", P->CallsOut).field("jumps_in", P->JumpsIn);
    W.field("jumps_out", P->JumpsOut).field("returns", P->Returns);
    W.field("cuts_landed", P->CutsLanded);
    W.field("frames_discarded", P->FramesDiscarded);
    W.field("unwind_pops", P->UnwindPops).field("yields", P->Yields);
    W.endObject();
  }
  W.endArray();
  W.key("sites");
  W.beginArray();
  for (const CallSiteProfile *S : SiteRows) {
    W.beginObject();
    W.field("owner", std::string_view(S->Owner));
    W.field("loc", S->Loc.str());
    W.field("callee", std::string_view(S->Callee));
    W.field("calls", S->Calls).field("returns", S->Returns);
    W.field("alt_returns", S->AltReturns).field("cut_over", S->CutsOver);
    W.field("unwind_pops", S->UnwindPops);
    W.endObject();
  }
  W.endArray();
  W.key("dispatch");
  W.beginObject();
  W.field("dispatches", Dispatch.Dispatches);
  W.field("handled", Dispatch.Handled);
  W.field("activations_visited", Dispatch.ActivationsVisited);
  W.field("activations_max", Dispatch.ActivationsMax);
  W.key("unwind_pop_histogram");
  W.beginArray();
  for (const auto &[Depth, Count] : Dispatch.UnwindPopHistogram) {
    W.beginObject();
    W.field("pops", Depth).field("dispatches", Count);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  W.endObject();
}
