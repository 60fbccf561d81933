//===- obs/Trace.cpp ------------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/Json.h"

using namespace cmm;

const char *cmm::nodeKindName(Node::Kind K) {
  switch (K) {
  case Node::Kind::Entry:
    return "Entry";
  case Node::Kind::Exit:
    return "Exit";
  case Node::Kind::CopyIn:
    return "CopyIn";
  case Node::Kind::CopyOut:
    return "CopyOut";
  case Node::Kind::CalleeSaves:
    return "CalleeSaves";
  case Node::Kind::Assign:
    return "Assign";
  case Node::Kind::Store:
    return "Store";
  case Node::Kind::Branch:
    return "Branch";
  case Node::Kind::Call:
    return "Call";
  case Node::Kind::Jump:
    return "Jump";
  case Node::Kind::CutTo:
    return "CutTo";
  case Node::Kind::Yield:
    return "Yield";
  }
  return "?";
}

namespace {

std::string procName(const Executor &M, const IrProc *P) {
  if (!P)
    return "?";
  return std::string(M.program().Names->spelling(P->Name));
}

/// First yield argument, when the run follows the (tag, arg?) convention.
uint64_t yieldTag(const Executor &M) {
  const std::vector<Value> &A = M.argArea();
  return (!A.empty() && A[0].isBits()) ? A[0].Raw : 0;
}

} // namespace

TraceSink::TraceSink(std::ostream &OS, TraceOptions Opts)
    : OS(OS), Opts(Opts) {}

TraceSink::~TraceSink() { finish(); }

uint64_t TraceSink::timestamp(const Executor &M) const {
  if (!Opts.WallClock)
    return M.stats().Steps;
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - Opts.Epoch)
                      .count());
}

void TraceSink::writeDirect(const std::string &Line) {
  if (Opts.BareLines) {
    OS << Line << '\n';
    return;
  }
  if (jsonl()) {
    OS << Line << '\n';
    return;
  }
  if (!WroteHeader) {
    OS << "{\"traceEvents\":[\n";
    WroteHeader = true;
  } else {
    OS << ",\n";
  }
  OS << Line;
}

void TraceSink::emit(std::string Line) {
  // One injection point covers every event in both formats: each line is a
  // complete JSON object, so the job tag goes right after its brace.
  if (Opts.JobId != 0 && Line.size() > 2 && Line.front() == '{')
    Line.insert(1, "\"job\":" + std::to_string(Opts.JobId) + ",");
  ++Emitted;
  if (Opts.RingCapacity != 0) {
    if (Ring.size() == Opts.RingCapacity) {
      Ring.pop_front();
      ++Dropped;
    }
    Ring.push_back(std::move(Line));
    return;
  }
  writeDirect(Line);
}

void TraceSink::finish() {
  if (Finished)
    return;
  Finished = true;
  // Close spans still open (machine running, wrong, or suspended). These
  // E events go through emit() so the ring sees them too.
  if (!jsonl()) {
    while (RtsSpans > 0) {
      --RtsSpans;
      JsonWriter W;
      W.beginObject();
      W.field("ph", "E").field("ts", LastStep).field("pid", Opts.Pid);
      W.field("tid", uint64_t(1));
      W.endObject();
      emit(W.take());
    }
    while (!MutatorSpans.empty()) {
      MutatorSpans.pop_back();
      JsonWriter W;
      W.beginObject();
      W.field("ph", "E").field("ts", LastStep).field("pid", Opts.Pid);
      W.field("tid", uint64_t(0));
      W.endObject();
      emit(W.take());
    }
  }
  for (const std::string &Line : Ring)
    writeDirect(Line);
  Ring.clear();
  if (!jsonl() && !Opts.BareLines) {
    if (!WroteHeader)
      OS << "{\"traceEvents\":[\n";
    OS << "\n]}\n";
  }
  OS.flush();
}

//===----------------------------------------------------------------------===//
// Chrome-format span plumbing
//===----------------------------------------------------------------------===//

void TraceSink::spanBegin(const Executor &M, std::string Name,
                          const char *Cat, std::string Args, unsigned Tid) {
  LastStep = timestamp(M);
  JsonWriter W;
  W.beginObject();
  W.field("name", std::string_view(Name)).field("cat", Cat);
  W.field("ph", "B").field("ts", LastStep).field("pid", Opts.Pid);
  W.field("tid", uint64_t(Tid));
  W.endObject();
  std::string Line = W.take();
  if (!Args.empty()) {
    // Args arrives as pre-rendered "key":value,... object content.
    Line.pop_back(); // '}'
    Line += ",\"args\":{";
    Line += Args;
    Line += "}}";
  }
  if (Tid == 0)
    MutatorSpans.push_back(std::move(Name));
  else
    ++RtsSpans;
  emit(std::move(Line));
}

void TraceSink::spanEnd(const Executor &M, unsigned Tid) {
  if (Tid == 0) {
    if (MutatorSpans.empty())
      return; // unbalanced (e.g. trace attached mid-run); drop
    MutatorSpans.pop_back();
  } else {
    if (RtsSpans == 0)
      return;
    --RtsSpans;
  }
  LastStep = timestamp(M);
  JsonWriter W;
  W.beginObject();
  W.field("ph", "E").field("ts", LastStep).field("pid", Opts.Pid);
  W.field("tid", uint64_t(Tid));
  W.endObject();
  emit(W.take());
}

void TraceSink::instant(const Executor &M, std::string_view Name,
                        const char *Cat, std::string Args, unsigned Tid) {
  LastStep = timestamp(M);
  JsonWriter W;
  W.beginObject();
  W.field("name", Name).field("cat", Cat).field("ph", "i");
  W.field("ts", LastStep).field("pid", Opts.Pid);
  W.field("tid", uint64_t(Tid)).field("s", "t");
  W.endObject();
  std::string Line = W.take();
  if (!Args.empty()) {
    Line.pop_back(); // '}'
    Line += ",\"args\":{";
    Line += Args;
    Line += "}}";
  }
  emit(std::move(Line));
}

//===----------------------------------------------------------------------===//
// Events
//===----------------------------------------------------------------------===//

void TraceSink::onStart(const Executor &M, const IrProc *Entry) {
  LastStep = timestamp(M);
  if (jsonl()) {
    JsonWriter W;
    W.beginObject();
    W.field("ev", "start").field("step", LastStep);
    W.field("depth", uint64_t(M.stackDepth()));
    W.field("proc", procName(M, Entry));
    W.endObject();
    emit(W.take());
    return;
  }
  spanBegin(M, procName(M, Entry), "proc", "");
}

void TraceSink::onHalt(const Executor &M) {
  LastStep = timestamp(M);
  if (jsonl()) {
    JsonWriter W;
    W.beginObject();
    W.field("ev", "halt").field("step", LastStep);
    W.field("results", uint64_t(M.argArea().size()));
    W.endObject();
    emit(W.take());
    return;
  }
  spanEnd(M); // the root activation
  instant(M, "halt", "machine", "");
}

void TraceSink::onStep(const Executor &M, const Node *N) {
  if (!Opts.IncludeSteps)
    return;
  LastStep = timestamp(M);
  if (jsonl()) {
    JsonWriter W;
    W.beginObject();
    W.field("ev", "step").field("step", LastStep);
    W.field("depth", uint64_t(M.stackDepth()));
    W.field("proc", procName(M, M.currentProc()));
    W.field("node", nodeKindName(N->kind()));
    W.field("loc", N->Loc.str());
    W.endObject();
    emit(W.take());
    return;
  }
  instant(M, nodeKindName(N->kind()), "step", "");
}

void TraceSink::onCall(const Executor &M, const CallNode *Site,
                       const IrProc *Caller, const IrProc *Callee) {
  LastStep = timestamp(M);
  if (jsonl()) {
    JsonWriter W;
    W.beginObject();
    W.field("ev", "call").field("step", LastStep);
    W.field("depth", uint64_t(M.stackDepth()));
    W.field("caller", procName(M, Caller));
    W.field("callee", procName(M, Callee));
    W.field("site", Site->Loc.str());
    W.endObject();
    emit(W.take());
    return;
  }
  spanBegin(M, procName(M, Callee), "call",
            "\"site\":\"" + jsonEscape(Site->Loc.str()) + "\"");
}

void TraceSink::onJump(const Executor &M, const JumpNode *Site,
                       const IrProc *Caller, const IrProc *Callee) {
  LastStep = timestamp(M);
  if (jsonl()) {
    JsonWriter W;
    W.beginObject();
    W.field("ev", "jump").field("step", LastStep);
    W.field("depth", uint64_t(M.stackDepth()));
    W.field("caller", procName(M, Caller));
    W.field("callee", procName(M, Callee));
    W.field("site", Site->Loc.str());
    W.endObject();
    emit(W.take());
    return;
  }
  // A tail call replaces the current span.
  spanEnd(M);
  spanBegin(M, procName(M, Callee), "jump", "");
}

void TraceSink::onReturn(const Executor &M, const CallNode *Site,
                         const IrProc *Callee, const IrProc *Caller,
                         unsigned ContIndex) {
  LastStep = timestamp(M);
  if (jsonl()) {
    JsonWriter W;
    W.beginObject();
    W.field("ev", "return").field("step", LastStep);
    W.field("depth", uint64_t(M.stackDepth()));
    W.field("callee", procName(M, Callee));
    W.field("to", procName(M, Caller));
    W.field("site", Site->Loc.str());
    W.field("cont", uint64_t(ContIndex));
    W.endObject();
    emit(W.take());
    return;
  }
  spanEnd(M);
}

void TraceSink::onCutFrameDiscarded(const Executor &M, const CallNode *Site,
                                    const IrProc *Owner) {
  LastStep = timestamp(M);
  if (jsonl()) {
    JsonWriter W;
    W.beginObject();
    W.field("ev", "cut_frame").field("step", LastStep);
    W.field("depth", uint64_t(M.stackDepth()));
    W.field("proc", procName(M, Owner));
    W.field("site", Site->Loc.str());
    W.endObject();
    emit(W.take());
    return;
  }
  spanEnd(M);
}

void TraceSink::onCut(const Executor &M, const CutToNode *From,
                      const IrProc *Target, uint64_t FramesDiscarded,
                      bool SameActivation) {
  LastStep = timestamp(M);
  if (jsonl()) {
    JsonWriter W;
    W.beginObject();
    W.field("ev", "cut").field("step", LastStep);
    W.field("depth", uint64_t(M.stackDepth()));
    W.field("target", procName(M, Target));
    W.field("frames", FramesDiscarded);
    W.field("same", SameActivation);
    W.field("from", From ? From->Loc.str() : std::string("rts"));
    W.endObject();
    emit(W.take());
    return;
  }
  if (!SameActivation)
    spanEnd(M); // the activation abandoned by the cut
  instant(M, "cut", "exn",
          "\"target\":\"" + jsonEscape(procName(M, Target)) +
              "\",\"frames\":" + std::to_string(FramesDiscarded));
}

void TraceSink::onYield(const Executor &M) {
  LastStep = timestamp(M);
  if (jsonl()) {
    JsonWriter W;
    W.beginObject();
    W.field("ev", "yield").field("step", LastStep);
    W.field("depth", uint64_t(M.stackDepth()));
    W.field("tag", yieldTag(M));
    W.field("args", uint64_t(M.argArea().size()));
    W.endObject();
    emit(W.take());
    return;
  }
  instant(M, "yield", "exn", "\"tag\":" + std::to_string(yieldTag(M)));
}

void TraceSink::onUnwindPop(const Executor &M, const CallNode *Site,
                            const IrProc *Owner, bool Resumed) {
  LastStep = timestamp(M);
  if (jsonl()) {
    JsonWriter W;
    W.beginObject();
    W.field("ev", "unwind_pop").field("step", LastStep);
    W.field("depth", uint64_t(M.stackDepth()));
    W.field("proc", procName(M, Owner));
    W.field("site", Site->Loc.str());
    W.field("resumed", Resumed);
    W.endObject();
    emit(W.take());
    return;
  }
  // The resuming pop does not close its span: control continues inside
  // that very activation at its unwind continuation.
  if (!Resumed)
    spanEnd(M);
}

void TraceSink::onResume(const Executor &M, ResumeChoice::Kind K,
                         unsigned Index) {
  LastStep = timestamp(M);
  if (jsonl()) {
    JsonWriter W;
    W.beginObject();
    W.field("ev", "resume").field("step", LastStep);
    W.field("depth", uint64_t(M.stackDepth()));
    W.field("kind",
            K == ResumeChoice::Kind::Return
                ? "return"
                : (K == ResumeChoice::Kind::Unwind ? "unwind" : "cut"));
    W.field("index", uint64_t(Index));
    W.endObject();
    emit(W.take());
    return;
  }
  // The suspended activation (the yield intrinsic) is abandoned.
  spanEnd(M);
}

void TraceSink::onWrong(const Executor &M, const std::string &Reason,
                        SourceLoc Loc) {
  LastStep = timestamp(M);
  if (jsonl()) {
    JsonWriter W;
    W.beginObject();
    W.field("ev", "wrong").field("step", LastStep);
    W.field("reason", Reason);
    W.field("loc", Loc.str());
    W.endObject();
    emit(W.take());
    return;
  }
  instant(M, "wrong", "machine",
          "\"reason\":\"" + jsonEscape(Reason) + "\"");
}

void TraceSink::onDispatchBegin(const Executor &M, std::string_view Dispatcher,
                                uint64_t Tag) {
  LastStep = timestamp(M);
  if (jsonl()) {
    JsonWriter W;
    W.beginObject();
    W.field("ev", "dispatch_begin").field("step", LastStep);
    W.field("dispatcher", Dispatcher);
    W.field("tag", Tag);
    W.endObject();
    emit(W.take());
    return;
  }
  spanBegin(M, "dispatch:" + std::string(Dispatcher), "rts",
            "\"tag\":" + std::to_string(Tag), /*Tid=*/1);
}

void TraceSink::onDispatchEnd(const Executor &M, std::string_view Dispatcher,
                              bool Handled, uint64_t ActivationsVisited) {
  LastStep = timestamp(M);
  if (jsonl()) {
    JsonWriter W;
    W.beginObject();
    W.field("ev", "dispatch_end").field("step", LastStep);
    W.field("dispatcher", Dispatcher);
    W.field("handled", Handled);
    W.field("visited", ActivationsVisited);
    W.endObject();
    emit(W.take());
    return;
  }
  spanEnd(M, /*Tid=*/1);
}
