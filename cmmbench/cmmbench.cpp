//===- cmmbench/cmmbench.cpp - The end-to-end benchmark -------------------===//
//
// Part of cmmex (see DESIGN.md and cmmbench/README.md).
//
//   cmmbench --workload NAME --seed N --seconds S --trace 0|1
//            [--work-dir DIR] [--trace-out FILE]
//   cmmbench --smoke
//
// Runs one workload (exn_exec, compile_churn, svc_open, green_relay)
// through cmmex's public entry points, checks every answer, and prints, as
// the last line of standard output, one JSON object:
//
//   {"correct":..., "attempted":..., "failed":..., "metrics":{name:
//    {"value":..., "unit":...}}}
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// run is split in two halves, untraced then traced; the metrics are the
// per-layer ones from the traced half (spans, registry deltas, and the
// compile replay), plus trace.overhead_ratio, the traced half's throughput
// over the untraced half's. --smoke runs every workload briefly with every
// check, and proves the checker bites by corrupting one expected answer.
// The exit status is nonzero when any op failed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace cmmbench;

namespace {

using WorkloadFn = Outcome (*)(const RunConfig &, Tracer *);

struct Workload {
  const char *Name;
  WorkloadFn Run;
};

const Workload Workloads[] = {{"exn_exec", runExnExec},
                              {"compile_churn", runCompileChurn},
                              {"svc_open", runSvcOpen},
                              {"green_relay", runGreenRelay}};

/// Every per-layer metric, with its unit. A workload that does not touch a
/// layer reports 0 for it.
const std::pair<const char *, const char *> LayerCatalog[] = {
    {"engine.queue_us.p50", "us"},
    {"engine.queue_us.p99", "us"},
    {"engine.queue_us.samples", "count"},
    {"engine.run_us.p50", "us"},
    {"engine.run_us.p99", "us"},
    {"engine.compile_us.p50", "us"},
    {"engine.compile_us.p99", "us"},
    {"pool.busy_ratio", "ratio"},
    {"pool.steal_ratio", "ratio"},
    {"cache.lookups", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.ir_compiles", "count"},
    {"cache.bytecode_compiles", "count"},
    {"cache.threaded_compiles", "count"},
    {"cache.evictions", "count"},
    {"cache.singleflight_joins", "count"},
    {"cache.compile_us.p50", "us"},
    {"cache.compile_us.p99", "us"},
    {"replay.programs", "count"},
    {"replay.reconcile", "ratio"},
    {"ir.us.p50", "us"},
    {"ir.us.p99", "us"},
    {"ir.nodes", "count"},
    {"opt.us.p50", "us"},
    {"opt.us.p99", "us"},
    {"opt.changes", "count"},
    {"opt.nodes_delta", "count"},
    {"opt.also_edges", "count"},
    {"vm.bytecode_us.p50", "us"},
    {"vm.bytecode_us.p99", "us"},
    {"vm.bytecode_instrs", "count"},
    {"vm.fuse_us.p50", "us"},
    {"vm.fusion_hit_ratio", "ratio"},
    {"exec.steps_per_s.walk", "steps/s"},
    {"exec.steps_per_s.vm", "steps/s"},
    {"exec.steps_per_s.threaded", "steps/s"},
    {"exec.run_us.p50.walk", "us"},
    {"exec.run_us.p50.vm", "us"},
    {"exec.run_us.p50.threaded", "us"},
    {"exec.steps_per_op", "steps"},
    {"exec.steps_per_op.cut_gen", "steps"},
    {"exec.steps_per_op.cut_rt", "steps"},
    {"exec.steps_per_op.unwind_gen", "steps"},
    {"exec.steps_per_op.unwind_rt", "steps"},
    {"exec.steps_per_op.cps", "steps"},
    {"rts.dispatches_per_op", "count"},
    {"rts.frames_walked_per_op", "count"},
    {"exec.resume_cycles_per_op", "count"},
    {"sched.switches_per_s", "1/s"},
    {"sched.switches_per_op", "count"},
    {"sched.slice_us.p50", "us"},
    {"sched.slice_us.p99", "us"},
    {"sched.threads_per_op", "count"},
    {"sched.chan_msgs_per_op", "count"},
    {"open.p50_us_low", "us"},
    {"open.p99_us_low", "us"},
    {"open.p50_us_high", "us"},
    {"open.p99_us_high", "us"},
    {"open.max_rate_ok", "ops/s"},
    {"open.ramp_steps_ok", "count"},
    {"open.samples_high", "count"},
    {"svc.rtt_us.p50", "us"},
    {"svc.rtt_us.p99", "us"},
    {"svc.hot_us.p99", "us"},
    {"svc.cold_us.p99", "us"},
    {"svc.yield_us.p99", "us"},
    {"svc.request_us.p50", "us"},
    {"svc.request_us.p99", "us"},
    {"svc.unattributed_us.p50", "us"},
    {"svc.errors", "count"},
    {"svc.bad_frames", "count"},
    {"svc.quota_rejects", "count"},
    {"gen.late_us.p99", "us"},
    {"gen.outstanding_max", "count"},
    {"gen.valid", "bool"},
    {"self_us_per_op.engine", "us"},
    {"self_us_per_op.compile", "us"},
    {"self_us_per_op.sem", "us"},
    {"self_us_per_op.vm", "us"},
    {"self_us_per_op.sched", "us"},
    {"self_us_per_op.svc", "us"},
    {"self_us_per_op.gen", "us"},
    {"op.p99_us", "us"},
    {"trace.coverage", "ratio"},
    {"trace.spans", "count"},
    {"trace.overhead_ratio", "ratio"},
};

/// Shortest decimal that reads back as exactly \p V.
std::string number(double V) {
  char Buf[40];
  for (int Prec = 15; Prec <= 17; ++Prec) {
    std::snprintf(Buf, sizeof Buf, "%.*g", Prec, V);
    if (std::strtod(Buf, nullptr) == V)
      break;
  }
  return Buf;
}

void printResult(const Outcome &O, const Metrics &M) {
  bool Correct = O.Failed == 0 && O.Attempted > 0;
  std::string S = "{\"correct\": ";
  S += Correct ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(O.Attempted);
  S += ", \"failed\": " + std::to_string(O.Failed);
  S += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, V] : M) {
    S += First ? "" : ", ";
    First = false;
    S += "\"" + Name + "\": {\"value\": " + number(V.Value) +
         ", \"unit\": \"" + V.Unit + "\"}";
  }
  S += "}}";
  std::printf("%s\n", S.c_str());
}

void printReport(const char *Workload, const Outcome &O) {
  for (const std::string &L : O.Report)
    std::printf("%s\n", L.c_str());
  for (const std::string &N : O.Notes)
    std::printf("%s: FAILED: %s\n", Workload, N.c_str());
  if (O.Failed > O.Notes.size())
    std::printf("%s: ... %" PRIu64 " failures in all\n", Workload, O.Failed);
}

/// The per-layer metrics of a traced outcome, completed with zeros for the
/// layers the workload does not reach. False on an unknown name or unit (a
/// benchmark bug).
bool layerMetrics(const Outcome &O, Metrics &Out) {
  for (const auto &[Name, Unit] : LayerCatalog)
    Out[Name] = {0, Unit};
  for (const auto &[Name, V] : O.Layer) {
    auto It = Out.find(Name);
    if (It == Out.end() || It->second.Unit != V.Unit) {
      std::fprintf(stderr, "cmmbench: layer metric %s (%s) is not in the "
                           "catalog\n",
                   Name.c_str(), V.Unit.c_str());
      return false;
    }
    It->second.Value = V.Value;
  }
  return true;
}

int smoke(RunConfig C) {
  C.Seconds = 0.2;
  C.SetupReps = 1;
  bool Ok = true;
  for (const Workload &W : Workloads) {
    C.Workload = W.Name;
    Tracer T;
    Outcome O = W.Run(C, &T);
    Metrics M;
    bool Known = layerMetrics(O, M);
    std::printf("smoke %-13s attempted %" PRIu64 " failed %" PRIu64 "%s\n",
                W.Name, O.Attempted, O.Failed,
                Known ? "" : " (unknown layer metric)");
    printReport(W.Name, O);
    Ok = Ok && Known && O.Failed == 0 && O.Attempted > 0;

    // The checker must bite: a corrupted expected answer must fail ops.
    RunConfig Bad = C;
    Bad.CorruptExpected = true;
    Bad.Seconds = 0.1;
    Outcome B = W.Run(Bad, nullptr);
    std::printf("smoke %-13s corrupted expectation -> %" PRIu64
                " failures%s\n",
                W.Name, B.Failed, B.Failed ? "" : " (CHECKER DID NOT BITE)");
    Ok = Ok && B.Failed > 0;
  }
  std::printf("smoke: %s\n", Ok ? "ok" : "FAILED");
  return Ok ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: cmmbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-out FILE]\n"
               "       cmmbench --smoke\n"
               "workloads: exn_exec compile_churn svc_open green_relay\n");
}

} // namespace

int main(int Argc, char **Argv) {
  HostFacts Host = hostFacts();
  RunConfig C;
  C.Nproc = Host.Nproc;
  bool Trace = false, Smoke = false;
  std::string TraceOut;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        usage();
        std::exit(2);
      }
      return Argv[++I];
    };
    if (A == "--workload")
      C.Workload = next();
    else if (A == "--seed")
      C.Seed = std::strtoull(next(), nullptr, 10);
    else if (A == "--seconds")
      C.Seconds = std::strtod(next(), nullptr);
    else if (A == "--trace")
      Trace = std::strcmp(next(), "0") != 0;
    else if (A == "--work-dir")
      C.WorkDir = next();
    else if (A == "--trace-out")
      TraceOut = next();
    else if (A == "--smoke")
      Smoke = true;
    else {
      usage();
      return 2;
    }
  }
  std::printf("host %s\n", Host.json().c_str());
  if (Smoke)
    return smoke(C);

  const Workload *W = nullptr;
  for (const Workload &Cand : Workloads)
    if (C.Workload == Cand.Name)
      W = &Cand;
  if (!W || !(C.Seconds > 0)) {
    usage();
    return 2;
  }

  if (!Trace) {
    Outcome O = W->Run(C, nullptr);
    printReport(W->Name, O);
    printResult(O, O.E2E);
    return O.Failed == 0 && O.Attempted > 0 ? 0 : 1;
  }

  RunConfig Half = C;
  Half.Seconds = C.Seconds / 2;
  Outcome Plain = W->Run(Half, nullptr);
  Tracer T;
  Outcome Traced = W->Run(Half, &T);
  printReport(W->Name, Plain);
  printReport(W->Name, Traced);
  double Base = Plain.E2E["ops_per_s"].Value;
  Traced.layer("trace.overhead_ratio",
               Base > 0 ? Traced.E2E["ops_per_s"].Value / Base : 0, "ratio");
  Metrics M;
  if (!layerMetrics(Traced, M))
    return 1;
  if (!TraceOut.empty()) {
    // About 80000 spans (some 20000 ops) keep the file small.
    uint64_t Stride = std::max<uint64_t>(1, T.spanCount() / 80000);
    if (!T.writeChrome(TraceOut, Stride))
      std::fprintf(stderr, "cmmbench: cannot write %s\n", TraceOut.c_str());
    else
      std::printf("trace: %s (1 op in %" PRIu64 ")\n", TraceOut.c_str(),
                  Stride);
  }
  Outcome Both;
  Both.Attempted = Plain.Attempted + Traced.Attempted;
  Both.Failed = Plain.Failed + Traced.Failed;
  printResult(Both, M);
  return Both.Failed == 0 && Both.Attempted > 0 ? 0 : 1;
}
