//===- bench/BenchUtil.h - Shared benchmark helpers -------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two layers:
///
///  - A benchmark-library-independent part (ManualSuite, suiteMetadata,
///    compileOrDie): anything that writes BENCH_<suite>.json. Tools that
///    measure externally driven workloads — tools/cmmload.cpp timing a live
///    cmmexd — use ManualSuite to emit rows in the exact schema the Google
///    Benchmark suites emit, so the harness and CI diff every BENCH file
///    the same way.
///
///  - The Google Benchmark integration (JsonCaptureReporter,
///    CMM_BENCH_MAIN, exportLatencyHistogram), compiled only when the
///    benchmark headers are on the include path (bench/ binaries link
///    benchmark::benchmark; tools do not).
///
//===----------------------------------------------------------------------===//

#ifndef CMM_BENCH_BENCHUTIL_H
#define CMM_BENCH_BENCHUTIL_H

#include "ir/Translate.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "sem/Machine.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace cmm::bench {

/// Suite-level metadata — host facts and workload shape (CPU count, worker
/// threads, cache configuration) that a reader of BENCH_<suite>.json needs
/// to interpret the numbers. Suites fill this before the benchmarks run
/// (typically alongside benchmark registration); CMM_BENCH_MAIN writes it
/// into the JSON header as "metadata".
inline std::map<std::string, std::string> &suiteMetadata() {
  static std::map<std::string, std::string> M;
  return M;
}

/// Compiles \p Sources or aborts the benchmark binary (benchmarks never run
/// on malformed inputs).
inline std::unique_ptr<IrProgram>
compileOrDie(const std::vector<std::string> &Sources) {
  DiagnosticEngine Diags;
  std::unique_ptr<IrProgram> Prog = compileProgram(Sources, Diags);
  if (!Prog) {
    std::fprintf(stderr, "benchmark program failed to compile:\n%s\n",
                 Diags.str().c_str());
    std::abort();
  }
  return Prog;
}

inline Value b32(uint64_t V) { return Value::bits(32, V); }

/// CPUs this process may run on (sched_getaffinity, which honours cgroup
/// and taskset limits), not the machine's hardware_concurrency().
inline unsigned affinityCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof Set, &Set) == 0)
    return unsigned(std::max(1, CPU_COUNT(&Set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

//===----------------------------------------------------------------------===//
// ManualSuite: BENCH_<suite>.json without Google Benchmark
//===----------------------------------------------------------------------===//

/// Accumulates benchmark rows measured by hand and renders them in the
/// same JSON shape as JsonCaptureReporter::json — {"suite", "metadata",
/// "benchmarks": [{"name", "iterations", "real_time_sec", "cpu_time_sec",
/// "error", "counters": {...}}]} — so downstream consumers cannot tell the
/// two producers apart.
class ManualSuite {
public:
  struct Row {
    std::string Name;
    uint64_t Iterations = 1;
    double RealSec = 0;
    double CpuSec = 0;
    bool Error = false;
    std::map<std::string, double> Counters;
  };

  explicit ManualSuite(std::string Suite) : Suite(std::move(Suite)) {}

  void meta(std::string Key, std::string V) {
    Metadata[std::move(Key)] = std::move(V);
  }

  Row &addRow(std::string Name) {
    Rows.emplace_back();
    Rows.back().Name = std::move(Name);
    return Rows.back();
  }

  std::string json() const {
    JsonWriter W;
    W.beginObject();
    W.field("suite", std::string_view(Suite));
    W.key("metadata");
    W.beginObject();
    for (const auto &[Name, V] : Metadata)
      W.field(std::string_view(Name), std::string_view(V));
    W.endObject();
    W.key("benchmarks");
    W.beginArray();
    for (const Row &R : Rows) {
      W.beginObject();
      W.field("name", std::string_view(R.Name));
      W.field("iterations", R.Iterations);
      W.field("real_time_sec", R.RealSec);
      W.field("cpu_time_sec", R.CpuSec);
      W.field("error", R.Error);
      W.key("counters");
      W.beginObject();
      for (const auto &[Name, V] : R.Counters)
        W.field(std::string_view(Name), V);
      W.endObject();
      W.endObject();
    }
    W.endArray();
    W.endObject();
    return W.take();
  }

  /// Writes BENCH_<suite>.json into the working directory (or \p Path when
  /// given).
  bool writeFile(const std::string &Path = "") const {
    std::string P = Path.empty() ? "BENCH_" + Suite + ".json" : Path;
    std::ofstream Out(P);
    if (!Out)
      return false;
    Out << json() << '\n';
    return bool(Out);
  }

private:
  std::string Suite;
  std::map<std::string, std::string> Metadata;
  std::vector<Row> Rows;
};

} // namespace cmm::bench

//===----------------------------------------------------------------------===//
// Google Benchmark integration (bench/ binaries only)
//===----------------------------------------------------------------------===//

// Non-benchmark binaries (tools/cmmload.cpp) define CMM_BENCH_NO_GBENCH
// before including this header: the benchmark headers may be visible on the
// system include path even when the binary does not link the library.
#if !defined(CMM_BENCH_NO_GBENCH) && __has_include(<benchmark/benchmark.h>)

#include <benchmark/benchmark.h>

namespace cmm::bench {

/// Exports a latency Histogram's summary as user counters under \p Prefix
/// (<prefix>_p50_us, _p90_us, _p99_us, _max_us), so the BENCH JSON rows
/// carry the distribution tail, not just Google Benchmark's mean.
inline void exportLatencyHistogram(benchmark::State &State,
                                   const Histogram &H,
                                   const std::string &Prefix) {
  State.counters[Prefix + "_p50_us"] = double(H.percentile(50));
  State.counters[Prefix + "_p90_us"] = double(H.percentile(90));
  State.counters[Prefix + "_p99_us"] = double(H.percentile(99));
  State.counters[Prefix + "_max_us"] = double(H.max());
}

/// A console reporter that additionally captures every run so the binary can
/// write a machine-readable BENCH_<suite>.json next to the usual table (the
/// bench harness and CI diff these instead of scraping stdout).
class JsonCaptureReporter : public benchmark::ConsoleReporter {
public:
  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs)
      Captured.push_back(R);
    benchmark::ConsoleReporter::ReportRuns(Runs);
  }

  /// Renders the captured runs: per-run wall time, iterations, and every
  /// user counter (machine Stats exported via benchmark::State::counters).
  std::string json(const std::string &Suite) const {
    JsonWriter W;
    W.beginObject();
    W.field("suite", std::string_view(Suite));
    W.key("metadata");
    W.beginObject();
    for (const auto &[Name, V] : suiteMetadata())
      W.field(std::string_view(Name), std::string_view(V));
    W.endObject();
    W.key("benchmarks");
    W.beginArray();
    for (const Run &R : Captured) {
      W.beginObject();
      W.field("name", std::string_view(R.benchmark_name()));
      W.field("iterations", uint64_t(R.iterations));
      W.field("real_time_sec", R.real_accumulated_time);
      W.field("cpu_time_sec", R.cpu_accumulated_time);
      W.field("error", R.error_occurred);
      W.key("counters");
      W.beginObject();
      for (const auto &[Name, C] : R.counters)
        W.field(std::string_view(Name), double(C));
      W.endObject();
      W.endObject();
    }
    W.endArray();
    W.endObject();
    return W.take();
  }

  /// The captured runs, for suites that post-process results (e.g.
  /// bench_interp's speedup-ratio metadata) before writeJsonFile.
  const std::vector<Run> &runs() const { return Captured; }

  bool writeJsonFile(const std::string &Suite) const {
    std::string Path = "BENCH_" + Suite + ".json";
    std::ofstream Out(Path);
    if (!Out)
      return false;
    Out << json(Suite) << '\n';
    return bool(Out);
  }

private:
  std::vector<Run> Captured;
};

} // namespace cmm::bench

/// Drop-in replacement for BENCHMARK_MAIN() that also writes
/// BENCH_<suite>.json into the working directory.
#define CMM_BENCH_MAIN(suite)                                                  \
  int main(int argc, char **argv) {                                            \
    ::benchmark::Initialize(&argc, argv);                                      \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))                  \
      return 1;                                                                \
    ::cmm::bench::JsonCaptureReporter Reporter;                                \
    ::benchmark::RunSpecifiedBenchmarks(&Reporter);                            \
    if (!Reporter.writeJsonFile(#suite))                                       \
      std::fprintf(stderr, "warning: could not write BENCH_" #suite ".json\n");\
    ::benchmark::Shutdown();                                                   \
    return 0;                                                                  \
  }                                                                            \
  int main(int, char **)

#endif // !CMM_BENCH_NO_GBENCH && __has_include(<benchmark/benchmark.h>)

#endif // CMM_BENCH_BENCHUTIL_H
