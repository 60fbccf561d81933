//===- tools/cmmi.cpp - The C-- interpreter CLI ---------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
// Compile and run C-- source files on the Abstract C-- machine:
//
//   cmmi [options] file.cmm... [-- arg...]
//
// The shared flags (--backend, --optimize, --trace*, --profile, --stats*)
// are parsed by support/Options.h; programs compile and run through the
// engine (Engine::compile, Engine::runJob), like every other embedder.
// Tool-specific flags:
//
//   --entry NAME     procedure to run (default: main)
//   --dispatcher D   front-end runtime for yields: none|unwind|cut
//                    (default: unwind)
//   --no-stdlib      do not link the %%div standard library
//   --dump-ir        print the Abstract C-- graphs and exit
//   --dump-il        print the round-trippable textual IL and exit
//   --dump-bytecode  print the VM bytecode listing and exit
//   --opt-stats      print per-pass wall time and IR deltas (with
//                    --optimize)
//   --emit-artifact F  compile to a `.cmmart` artifact file and exit
//   --load-artifact F  run a `.cmmart` file instead of compiling sources
//   --cache-dir DIR  compile through the persistent artifact cache
//
// Exit status: 0 on normal termination, 1 on compile errors, 2 when the
// program goes wrong, 3 on an unhandled yield.
//
//===----------------------------------------------------------------------===//

#include "engine/ArtifactStore.h"
#include "engine/Engine.h"
#include "ir/IlText.h"
#include "ir/IrPrinter.h"
#include "obs/Profiler.h"
#include "obs/StatsJson.h"
#include "obs/Trace.h"
#include "opt/PassManager.h"
#include "support/Options.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

using namespace cmm;

namespace {

constexpr unsigned CmmiFlags =
    FG_Backend | FG_Trace | FG_Profile | FG_Stats | FG_Opt | FG_Cache;

void usage() {
  std::fprintf(stderr,
               "usage: cmmi [options] file.cmm... [-- arg...]\n"
               "  --entry NAME     procedure to run (default: main)\n"
               "  --dispatcher D   none|unwind|cut (default: unwind)\n"
               "  --no-stdlib      do not link the %%%%div standard library\n"
               "  --dump-ir        print the Abstract C-- graphs and exit\n"
               "  --dump-il        print the textual IL (parseable round-trip\n"
               "                   form) and exit\n"
               "  --emit-artifact F  compile (honouring --optimize) into the\n"
               "                   .cmmart artifact file F and exit\n"
               "  --load-artifact F  run the .cmmart artifact F instead of\n"
               "                   compiling sources\n"
               "  --dump-bytecode  print the VM bytecode listing and exit\n"
               "                   (with --backend=threaded: the fused\n"
               "                   stream with superinstruction names and\n"
               "                   fusion-site counts)\n"
               "%s",
               commonFlagsHelp(CmmiFlags).c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  CommonOptions Common;
  std::string Entry = "main";
  std::string Dispatcher = "unwind";
  bool StdLib = true, DumpIr = false, DumpIl = false, DumpBytecode = false;
  std::string EmitArtifact, LoadArtifact;
  std::vector<std::string> Files;
  std::vector<Value> Args;

  int I = 1;
  for (; I < Argc; ++I) {
    std::string Err;
    switch (parseCommonFlag(Common, CmmiFlags, I, Argc, Argv, Err)) {
    case FlagParse::Consumed:
      continue;
    case FlagParse::Error:
      std::fprintf(stderr, "cmmi: %s\n", Err.c_str());
      return 1;
    case FlagParse::NotMine:
      break;
    }
    std::string A = Argv[I];
    if (A == "--") {
      ++I;
      break;
    }
    if (A == "--entry" && I + 1 < Argc) {
      Entry = Argv[++I];
    } else if (A == "--dispatcher" && I + 1 < Argc) {
      Dispatcher = Argv[++I];
    } else if (A == "--no-stdlib") {
      StdLib = false;
    } else if (A == "--dump-ir") {
      DumpIr = true;
    } else if (A == "--dump-il") {
      DumpIl = true;
    } else if (A == "--emit-artifact" && I + 1 < Argc) {
      EmitArtifact = Argv[++I];
    } else if (A == "--load-artifact" && I + 1 < Argc) {
      LoadArtifact = Argv[++I];
    } else if (A == "--dump-bytecode") {
      DumpBytecode = true;
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "cmmi: unknown option '%s'\n", A.c_str());
      usage();
      return 1;
    } else {
      Files.push_back(A);
    }
  }
  for (; I < Argc; ++I)
    Args.push_back(Value::bits(32, std::strtoull(Argv[I], nullptr, 0)));

  if (Files.empty() && LoadArtifact.empty()) {
    usage();
    return 1;
  }
  if (!Files.empty() && !LoadArtifact.empty()) {
    std::fprintf(stderr,
                 "cmmi: --load-artifact replaces source files; pass one or "
                 "the other\n");
    return 1;
  }
  {
    std::string Err;
    if (!finalizeCommonOptions(Common, CmmiFlags, Err)) {
      std::fprintf(stderr, "cmmi: %s\n", Err.c_str());
      return 1;
    }
  }

  auto ReadFile = [](const std::string &Path, std::string &Out) {
    std::ifstream In(Path, std::ios::binary);
    if (!In) {
      std::fprintf(stderr, "cmmi: cannot open '%s'\n", Path.c_str());
      return false;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Out = Buf.str();
    return true;
  };
  // --optimize carries the PlaceCalleeSaves configuration cmmi always
  // optimizes with.
  engine::CompileRequest Req;
  Req.IncludeStdLib = StdLib;
  Req.Optimize = Common.Optimize;
  Req.Opt.PlaceCalleeSaves = Common.Optimize;
  for (const std::string &File : Files)
    if (!ReadFile(File, Req.Sources.emplace_back()))
      return 1;

  // Compile and run through the engine: the same compile path, budgeted
  // loop, observer fan-in, and dispatcher wiring every embedder gets. The
  // cache is off by default; --cache-dir turns it on so the persistent tier
  // is consulted and populated (docs/ENGINE.md § "Persistent cache").
  engine::EngineOptions EOpts;
  EOpts.Threads = 1;
  EOpts.EnableCache = !Common.CacheDir.empty();
  EOpts.CacheDir = Common.CacheDir;
  engine::Engine Eng(EOpts);

  std::shared_ptr<const engine::ProgramArtifact> Art;
  if (!LoadArtifact.empty()) {
    std::string Bytes, Err;
    if (!ReadFile(LoadArtifact, Bytes))
      return 1;
    Art = engine::ArtifactStore::deserialize(
        reinterpret_cast<const uint8_t *>(Bytes.data()), Bytes.size(),
        /*ExpectKey=*/nullptr, &Err);
    if (!Art) {
      std::fprintf(stderr, "cmmi: invalid artifact '%s': %s\n",
                   LoadArtifact.c_str(), Err.c_str());
      return 1;
    }
  } else {
    Art = Eng.compile(Req);
    if (!Art->ok()) {
      std::fprintf(stderr, "%s", Art->error().c_str());
      return 1;
    }
  }
  const IrProgram &ProgRef = *Art->program();

  if (!EmitArtifact.empty()) {
    std::vector<uint8_t> Blob = engine::ArtifactStore::serialize(*Art);
    std::ofstream Out(EmitArtifact, std::ios::binary | std::ios::trunc);
    if (!Out ||
        !Out.write(reinterpret_cast<const char *>(Blob.data()),
                   std::streamsize(Blob.size()))) {
      std::fprintf(stderr, "cmmi: cannot write '%s'\n", EmitArtifact.c_str());
      return 1;
    }
    std::fprintf(stderr, "cmmi: wrote %zu bytes (key %s) to %s\n",
                 Blob.size(), Art->key().str().c_str(), EmitArtifact.c_str());
    return 0;
  }
  if (DumpIr) {
    std::printf("%s", printProgram(ProgRef).c_str());
    return 0;
  }
  if (DumpIl) {
    std::printf("%s", printIl(ProgRef).c_str());
    return 0;
  }
  if (DumpBytecode) {
    if (Common.Backend == "threaded") {
      // The threaded view: the same listing over the fused key stream,
      // with superinstruction mnemonics and the fusion-site tally.
      auto TP = Art->threaded();
      for (uint32_t PI = 0; PI < TP->Bytecode->Procs.size(); ++PI)
        std::printf("%s",
                    disassembleThreaded(*TP, PI, *ProgRef.Names).c_str());
      std::printf("fusion: %llu sites fused, %llu candidate pairs unfused\n",
                  (unsigned long long)TP->Fusion.FusedSites,
                  (unsigned long long)TP->Fusion.MissedSites);
      for (const FusionPair &P : fusionPairs())
        if (uint64_t N = TP->Fusion.SitesByOp[size_t(P.Fused)])
          std::printf("  %-14s %llu\n", superOpName(P.Fused),
                      (unsigned long long)N);
      return 0;
    }
    for (const CompiledProc &C : Art->bytecode()->Procs)
      std::printf("%s", disassemble(C, *ProgRef.Names).c_str());
    return 0;
  }

  std::optional<DispatcherKind> DK = parseDispatcherKind(Dispatcher);
  if (!DK) {
    std::fprintf(stderr, "cmmi: unknown dispatcher '%s'\n",
                 Dispatcher.c_str());
    return 1;
  }

  engine::Job J;
  J.Artifact = Art;
  J.B = *engine::parseBackend(Common.Backend);
  J.Entry = Entry;
  J.Args = std::move(Args);
  J.Dispatcher = *DK;

  std::ofstream TraceFileStream;
  if (!Common.TraceFile.empty()) {
    std::ostream *TraceOS = &std::cout;
    if (Common.TraceFile != "-") {
      TraceFileStream.open(Common.TraceFile);
      if (!TraceFileStream) {
        std::fprintf(stderr, "cmmi: cannot write '%s'\n",
                     Common.TraceFile.c_str());
        return 1;
      }
      TraceOS = &TraceFileStream;
    }
    J.TraceTo = TraceOS;
    J.Trace.Fmt = Common.TraceFormat == "chrome"
                      ? TraceOptions::Format::Chrome
                      : TraceOptions::Format::Jsonl;
    J.Trace.IncludeSteps = Common.TraceSteps;
    J.Trace.RingCapacity = Common.TraceRing;
  }
  Profiler Prof;
  if (Common.Profile)
    J.Obs = &Prof; // caller-owned: cmmi needs the text report afterwards

  engine::JobResult R = Eng.runJob(J);
  MachineStatus St = R.Status;

  int Exit = 0;
  switch (St) {
  case MachineStatus::Halted: {
    std::string Sep;
    std::printf("%s returned (", Entry.c_str());
    for (const Value &V : R.Results) {
      std::printf("%s%s", Sep.c_str(), V.str().c_str());
      Sep = ", ";
    }
    std::printf(")\n");
    break;
  }
  case MachineStatus::Wrong:
    std::fprintf(stderr, "cmmi: program went wrong at %s: %s\n",
                 R.WrongLoc.str().c_str(), R.WrongReason.c_str());
    Exit = 2;
    break;
  case MachineStatus::Suspended:
    std::fprintf(stderr, "cmmi: unhandled yield (tag %llu)\n",
                 static_cast<unsigned long long>(
                     R.Results.empty() ? 0 : R.Results[0].Raw));
    Exit = 3;
    break;
  default:
    std::fprintf(stderr, "cmmi: machine did not finish\n");
    Exit = 2;
  }

  if (Common.ShowStats) {
    const Stats &S = R.MachineStats;
    std::fprintf(
        stderr,
        "steps=%llu calls=%llu jumps=%llu returns=%llu cuts=%llu "
        "frames_cut_over=%llu yields=%llu unwind_pops=%llu "
        "conts_bound=%llu loads=%llu stores=%llu callee_save_moves=%llu "
        "max_depth=%llu\n",
        (unsigned long long)S.Steps, (unsigned long long)S.Calls,
        (unsigned long long)S.Jumps, (unsigned long long)S.Returns,
        (unsigned long long)S.Cuts, (unsigned long long)S.FramesCutOver,
        (unsigned long long)S.Yields, (unsigned long long)S.UnwindPops,
        (unsigned long long)S.ContsBound, (unsigned long long)S.Loads,
        (unsigned long long)S.Stores,
        (unsigned long long)S.CalleeSaveMoves,
        (unsigned long long)S.MaxStackDepth);
  }
  if (Common.OptStats && Common.Optimize)
    std::fprintf(stderr, "%s", optReportText(Art->optReport()).c_str());
  if (Common.Profile)
    std::fprintf(stderr, "%s", Prof.report().c_str());

  if (!Common.StatsJsonFile.empty()) {
    JsonWriter W;
    W.beginObject();
    W.field("entry", std::string_view(Entry));
    W.field("dispatcher", std::string_view(Dispatcher));
    W.field("status",
            St == MachineStatus::Halted
                ? "halted"
                : (St == MachineStatus::Wrong ? "wrong" : "suspended"));
    W.key("stats");
    writeStatsJson(W, R.MachineStats);
    if (Dispatcher != "none") {
      W.key("rt");
      writeRtStatsJson(W, R.RtWalk, R.RtDispatches);
    }
    if (Common.Optimize) {
      W.key("opt");
      writeOptReportJson(W, Art->optReport());
    }
    if (Common.Profile) {
      W.key("profile");
      Prof.writeJson(W);
    }
    W.endObject();
    if (Common.StatsJsonFile == "-") {
      std::printf("%s\n", W.str().c_str());
    } else {
      std::ofstream Out(Common.StatsJsonFile);
      if (!Out) {
        std::fprintf(stderr, "cmmi: cannot write '%s'\n",
                     Common.StatsJsonFile.c_str());
        return 1;
      }
      Out << W.str() << '\n';
    }
  }
  if (!Common.MetricsJsonFile.empty()) {
    std::string Json = Eng.metricsJson();
    if (Common.MetricsJsonFile == "-") {
      std::printf("%s\n", Json.c_str());
    } else {
      std::ofstream Out(Common.MetricsJsonFile);
      if (!Out) {
        std::fprintf(stderr, "cmmi: cannot write '%s'\n",
                     Common.MetricsJsonFile.c_str());
        return 1;
      }
      Out << Json << '\n';
    }
  }
  return Exit;
}
