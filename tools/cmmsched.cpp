//===- tools/cmmsched.cpp - Green-threads scheduler CLI -------------------===//
//
// Part of cmmex (see DESIGN.md).
//
// Run a C-- program as an M:N schedule of green threads
// (docs/SCHEDULER.md): the entry procedure becomes green thread 1, and the
// guest spawns, channels, sleeps, and joins through the yield vocabulary of
// rts/SchedFormat.h.
//
//   cmmsched [options] file.cmm... [-- arg...]
//
//   --entry NAME     procedure to run (default: main)
//   --drivers N      host driver threads (default: 1)
//   --slice-fuel N   transitions per cooperative slice (default: 16384)
//   --max-threads N  spawn guard (default: 1048576)
//   --dispatcher D   runtime for non-scheduler yields: none|unwind|cut
//                    (default: none)
//   --sched-stats    print schedule counters (threads, switches, steps,
//                    switch throughput) to stderr
//
// Exit status mirrors cmmi: 0 halted, 1 compile error, 2 went wrong (or
// deadlocked / fuel-exhausted), 3 unhandled yield.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "support/Options.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace cmm;

namespace {

constexpr unsigned CmmschedFlags = FG_Backend | FG_Stats;

void usage() {
  std::fprintf(stderr,
               "usage: cmmsched [options] file.cmm... [-- arg...]\n"
               "  --entry NAME     procedure to run (default: main)\n"
               "  --drivers N      host driver threads (default: 1)\n"
               "  --slice-fuel N   transitions per cooperative slice\n"
               "                   (default: 16384)\n"
               "  --max-threads N  spawn guard (default: 1048576)\n"
               "  --dispatcher D   none|unwind|cut for non-scheduler yields\n"
               "                   (default: none)\n"
               "  --sched-stats    print schedule counters to stderr\n"
               "%s",
               commonFlagsHelp(CmmschedFlags).c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  CommonOptions Common;
  std::string Entry = "main";
  std::string Dispatcher = "none";
  unsigned Drivers = 1;
  uint64_t SliceFuel = 1 << 14;
  uint64_t MaxThreads = 1 << 20;
  bool SchedStats = false;
  std::vector<std::string> Files;
  std::vector<Value> Args;

  int I = 1;
  for (; I < Argc; ++I) {
    std::string Err;
    switch (parseCommonFlag(Common, CmmschedFlags, I, Argc, Argv, Err)) {
    case FlagParse::Consumed:
      continue;
    case FlagParse::Error:
      std::fprintf(stderr, "cmmsched: %s\n", Err.c_str());
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
    } else if (A == "--drivers" && I + 1 < Argc) {
      Drivers = unsigned(std::strtoul(Argv[++I], nullptr, 0));
    } else if (A == "--slice-fuel" && I + 1 < Argc) {
      SliceFuel = std::strtoull(Argv[++I], nullptr, 0);
    } else if (A == "--max-threads" && I + 1 < Argc) {
      MaxThreads = std::strtoull(Argv[++I], nullptr, 0);
    } else if (A == "--dispatcher" && I + 1 < Argc) {
      Dispatcher = Argv[++I];
    } else if (A == "--sched-stats") {
      SchedStats = true;
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "cmmsched: unknown option '%s'\n", A.c_str());
      usage();
      return 1;
    } else {
      Files.push_back(A);
    }
  }
  for (; I < Argc; ++I)
    Args.push_back(Value::bits(32, std::strtoull(Argv[I], nullptr, 0)));

  if (Files.empty()) {
    usage();
    return 1;
  }
  std::optional<DispatcherKind> DK = parseDispatcherKind(Dispatcher);
  if (!DK) {
    std::fprintf(stderr, "cmmsched: unknown dispatcher '%s'\n",
                 Dispatcher.c_str());
    return 1;
  }
  {
    std::string Err;
    if (!finalizeCommonOptions(Common, CmmschedFlags, Err)) {
      std::fprintf(stderr, "cmmsched: %s\n", Err.c_str());
      return 1;
    }
  }

  engine::Job J;
  for (const std::string &File : Files) {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "cmmsched: cannot open '%s'\n", File.c_str());
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    J.Request.Sources.push_back(Buf.str());
  }
  J.B = *engine::parseBackend(Common.Backend);
  J.Entry = Entry;
  J.Args = std::move(Args);
  J.Dispatcher = *DK;
  J.Sched.Enabled = true;
  J.Sched.Drivers = Drivers;
  J.Sched.SliceFuel = SliceFuel;
  J.Sched.MaxThreads = MaxThreads;

  engine::EngineOptions EOpts;
  EOpts.Threads = Drivers > 1 ? Drivers : 1;
  engine::Engine Eng(EOpts);

  auto T0 = std::chrono::steady_clock::now();
  engine::JobResult R = Eng.runJob(J);
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - T0)
                    .count();

  if (!R.CompileError.empty()) {
    std::fprintf(stderr, "%s", R.CompileError.c_str());
    return 1;
  }

  int Exit = 0;
  switch (R.Status) {
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
    std::fprintf(stderr, "cmmsched: schedule went wrong at %s: %s\n",
                 R.WrongLoc.str().c_str(), R.WrongReason.c_str());
    Exit = 2;
    break;
  case MachineStatus::Suspended:
    std::fprintf(stderr, "cmmsched: %s\n",
                 R.WrongReason.empty() ? "unhandled yield"
                                       : R.WrongReason.c_str());
    Exit = 3;
    break;
  default:
    std::fprintf(stderr, "cmmsched: %s\n",
                 R.Deadlocked ? R.WrongReason.c_str()
                              : "schedule exhausted its fuel");
    Exit = 2;
    break;
  }

  if (SchedStats || Common.ShowStats)
    std::fprintf(stderr,
                 "threads=%llu switches=%llu steps=%llu drivers=%u "
                 "run_secs=%.3f switches_per_sec=%.0f\n",
                 (unsigned long long)R.SchedThreads,
                 (unsigned long long)R.SchedSwitches,
                 (unsigned long long)R.MachineStats.Steps, Drivers, Secs,
                 Secs > 0 ? double(R.SchedSwitches) / Secs : 0.0);

  if (!Common.MetricsJsonFile.empty()) {
    std::string Json = Eng.metricsJson();
    if (Common.MetricsJsonFile == "-") {
      std::printf("%s\n", Json.c_str());
    } else {
      std::ofstream Out(Common.MetricsJsonFile);
      if (!Out) {
        std::fprintf(stderr, "cmmsched: cannot write '%s'\n",
                     Common.MetricsJsonFile.c_str());
        return 1;
      }
      Out << Json << '\n';
    }
  }
  return Exit;
}
