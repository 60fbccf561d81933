//===- bench/bench_engine.cpp - Experiment ENGINE -------------------------===//
//
// Part of cmmex (see DESIGN.md). The batch execution engine's two claims,
// measured:
//
//  - Thread scaling: one batch of independent jobs (pre-compiled random
//    programs, both backends) executed by Engine::run on 1, 2, 4, and 8
//    workers. Jobs are isolated (one fresh executor each) and share only
//    the immutable artifact, so throughput should scale with the pool.
//    engine/batch_jobs/<N> reports jobs_per_sec; the harness reads the
//    8-vs-1 ratio from BENCH_engine.json. engine/diff_sweep/<N> repeats
//    the measurement on the real workload — cmmdiff's differential seed
//    sweep via ThreadPool::parallelFor.
//
//  - The content-hash cache: engine/compile_cold forces a miss on every
//    lookup (a source corpus larger than the cache capacity, cycled), so
//    each iteration pays parse + typecheck + translate; engine/compile_warm
//    replays one request against a resident artifact, paying only the hash
//    and one map probe. The gap is the cache's value per compile.
//    engine/compile_disk_warm replays the cold sweep against a primed
//    on-disk artifact store (docs/ENGINE.md § "Persistent cache"): every
//    lookup still misses the RAM tier but deserializes a stored artifact
//    instead of recompiling, placing the persistent cache between the two.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "costmodel/DiffHarness.h"
#include "costmodel/RandomProgram.h"
#include "engine/Engine.h"

#include <chrono>
#include <filesystem>
#include <thread>

using namespace cmm;
using namespace cmm::bench;

namespace {

/// A small corpus of pre-compiled random programs; jobs share these
/// immutable artifacts, so the batch measures execution, not compilation.
std::vector<std::shared_ptr<const engine::ProgramArtifact>> &artifacts() {
  static std::vector<std::shared_ptr<const engine::ProgramArtifact>> Arts =
      [] {
        std::vector<std::shared_ptr<const engine::ProgramArtifact>> V;
        for (uint64_t Seed = 0; Seed < 8; ++Seed) {
          RandomProgramOptions G;
          G.NumProcs = 6;
          G.Strategy = DispatchTechnique::CutGenerated;
          engine::CompileRequest Req;
          Req.Sources = {generateRandomProgram(Seed, G)};
          std::shared_ptr<const engine::ProgramArtifact> A =
              engine::compileArtifact(Req);
          if (!A->ok()) {
            std::fprintf(stderr, "bench_engine: seed %llu failed: %s\n",
                         static_cast<unsigned long long>(Seed),
                         A->error().c_str());
            std::abort();
          }
          A->bytecode(); // pre-compile so VM jobs measure pure execution
          V.push_back(std::move(A));
        }
        return V;
      }();
  return Arts;
}

constexpr unsigned JobsPerBatch = 256;

void batchJobs(benchmark::State &State) {
  engine::EngineOptions EO;
  EO.Threads = static_cast<unsigned>(State.range(0));
  engine::Engine Eng(EO);
  const auto &Arts = artifacts();
  uint64_t Jobs = 0;
  for (auto _ : State) {
    std::vector<engine::Job> Batch;
    Batch.reserve(JobsPerBatch);
    for (unsigned I = 0; I < JobsPerBatch; ++I) {
      engine::Job J;
      J.Artifact = Arts[I % Arts.size()];
      J.B = (I & 1) ? engine::Backend::Vm : engine::Backend::Walk;
      J.Args = {b32(I % 13)};
      J.MaxSteps = 2'000'000;
      Batch.push_back(std::move(J));
    }
    std::vector<engine::JobResult> Res = Eng.run(std::move(Batch));
    for (const engine::JobResult &R : Res)
      if (!R.CompileError.empty()) {
        State.SkipWithError("job failed to compile");
        return;
      }
    benchmark::DoNotOptimize(Res.size());
    Jobs += JobsPerBatch;
  }
  State.counters["jobs_per_sec"] = benchmark::Counter(
      static_cast<double>(Jobs), benchmark::Counter::kIsRate);
}

/// The production workload: a short differential sweep (every strategy,
/// config, input, and backend per seed) sharded over the engine's pool.
void diffSweep(benchmark::State &State) {
  engine::EngineOptions EO;
  EO.Threads = static_cast<unsigned>(State.range(0));
  engine::Engine Eng(EO);
  DiffOptions Opts;
  Opts.Eng = &Eng;
  Opts.Gen.NumProcs = 4;
  uint64_t Seeds = 0, SweepBase = 0;
  for (auto _ : State) {
    // Fresh seeds every iteration so the artifact cache cannot turn later
    // iterations into pure replays of the first.
    const uint64_t Lo = 100000 + SweepBase, Hi = Lo + 8;
    SweepBase += 8;
    std::atomic<uint64_t> Unexpected{0};
    Eng.pool().parallelFor(Lo, Hi, [&](uint64_t Seed) {
      DiffSeedResult R = diffTestSeed(Seed, Opts);
      if (R.hasUnexpected())
        Unexpected.fetch_add(1, std::memory_order_relaxed);
    });
    if (Unexpected.load() != 0) {
      State.SkipWithError("differential sweep diverged");
      return;
    }
    Seeds += Hi - Lo;
  }
  State.counters["seeds_per_sec"] = benchmark::Counter(
      static_cast<double>(Seeds), benchmark::Counter::kIsRate);
}

/// One generated source per distinct key, deterministic and cheap to vary.
std::string variantSource(unsigned K) {
  return "export main;\n"
         "main(bits32 n) {\n"
         "  bits32 s, i;\n"
         "  s = " + std::to_string(K) + "; i = 0;\n"
         "loop:\n"
         "  if i == 16 { return (s); }\n"
         "  s = s + i * " + std::to_string(K % 7 + 1) + ";\n"
         "  i = i + 1;\n"
         "  goto loop;\n"
         "}\n";
}

/// Records \p F's wall time into \p Lat in microseconds.
template <typename Fn> void timeInto(Histogram &Lat, Fn &&F) {
  auto T0 = std::chrono::steady_clock::now();
  F();
  Lat.record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - T0)
          .count()));
}

/// The cold-sweep corpus: 512 distinct keys, far more than the 64-artifact
/// cache below holds, so cycling through it misses on every lookup.
const std::vector<std::string> &coldCorpus() {
  static const std::vector<std::string> Corpus = [] {
    std::vector<std::string> V;
    for (unsigned K = 0; K < 512; ++K)
      V.push_back(variantSource(K));
    return V;
  }();
  return Corpus;
}

void compileCold(benchmark::State &State) {
  // 512 distinct keys cycled through a 64-artifact cache: every lookup
  // misses and pays the full front end.
  const std::vector<std::string> &Corpus = coldCorpus();
  engine::EngineOptions EO;
  EO.Threads = 1;
  EO.CacheCapacity = 64;
  engine::Engine Eng(EO);
  Histogram Lat; // per-compile latency: cold tails are the interesting part
  size_t I = 0;
  for (auto _ : State) {
    engine::CompileRequest Req;
    Req.Sources = {Corpus[I++ % Corpus.size()]};
    std::shared_ptr<const engine::ProgramArtifact> A;
    timeInto(Lat, [&] { A = Eng.compile(Req); });
    if (!A->ok()) {
      State.SkipWithError("variant failed to compile");
      return;
    }
    benchmark::DoNotOptimize(A->program());
  }
  engine::CacheStats CS = Eng.cacheStats();
  State.counters["hit_ratio"] = benchmark::Counter(
      CS.Lookups ? static_cast<double>(CS.Hits) / CS.Lookups : 0);
  exportLatencyHistogram(State, Lat, "cold");
}

void compileDiskWarm(benchmark::State &State) {
  // The cold sweep replayed against a primed persistent store: the same
  // 512-key corpus through the same 64-artifact RAM cache, but with
  // --cache-dir set and every artifact already on disk. Each lookup misses
  // the RAM tier and loads the serialized artifact instead of recompiling;
  // the gap to compile_cold is what the disk tier saves per compile, the
  // gap to compile_warm is what deserialization costs over a map probe.
  // The store lives in a directory private to this process (concurrent
  // runs never share or delete each other's), removed at exit.
  struct ProcessDir {
    std::string Path;
    ProcessDir(const ProcessDir &) = delete;
    ProcessDir() {
      std::string T = (std::filesystem::temp_directory_path() /
                       "cmmex_bench_disk_warm.XXXXXX")
                          .string();
      if (mkdtemp(T.data()))
        Path = T;
    }
    ~ProcessDir() {
      std::error_code Ec;
      if (!Path.empty())
        std::filesystem::remove_all(Path, Ec);
    }
  };
  const std::vector<std::string> &Corpus = coldCorpus();
  static const ProcessDir Dir;
  if (Dir.Path.empty()) {
    State.SkipWithError("mkdtemp failed");
    return;
  }
  static const bool Primed = [&] {
    engine::EngineOptions EO;
    EO.Threads = 1;
    EO.CacheCapacity = 64;
    EO.CacheDir = Dir.Path;
    engine::Engine Prime(EO);
    for (const std::string &Src : Corpus) {
      engine::CompileRequest Req;
      Req.Sources = {Src};
      Prime.compile(Req);
    }
    return true;
  }();
  (void)Primed;
  engine::EngineOptions EO;
  EO.Threads = 1;
  EO.CacheCapacity = 64;
  EO.CacheDir = Dir.Path;
  engine::Engine Eng(EO);
  Histogram Lat;
  size_t I = 0;
  for (auto _ : State) {
    engine::CompileRequest Req;
    Req.Sources = {Corpus[I++ % Corpus.size()]};
    std::shared_ptr<const engine::ProgramArtifact> A;
    timeInto(Lat, [&] { A = Eng.compile(Req); });
    if (!A->ok()) {
      State.SkipWithError("variant failed to load");
      return;
    }
    benchmark::DoNotOptimize(A->program());
  }
  engine::CacheStats CS = Eng.cacheStats();
  State.counters["hit_ratio"] = benchmark::Counter(
      CS.Lookups ? static_cast<double>(CS.Hits) / CS.Lookups : 0);
  State.counters["disk_hit_ratio"] = benchmark::Counter(
      CS.Misses ? static_cast<double>(CS.DiskHits) / CS.Misses : 0);
  if (CS.IrCompiles != 0) {
    State.SkipWithError("disk-warm sweep recompiled IR");
    return;
  }
  exportLatencyHistogram(State, Lat, "disk_warm");
}

void compileWarm(benchmark::State &State) {
  engine::EngineOptions EO;
  EO.Threads = 1;
  engine::Engine Eng(EO);
  engine::CompileRequest Req;
  Req.Sources = {variantSource(0)};
  Eng.compile(Req); // prime the cache; every timed lookup below hits
  Histogram Lat;
  for (auto _ : State) {
    std::shared_ptr<const engine::ProgramArtifact> A;
    timeInto(Lat, [&] { A = Eng.compile(Req); });
    if (!A->ok()) {
      State.SkipWithError("variant failed to compile");
      return;
    }
    benchmark::DoNotOptimize(A->program());
  }
  engine::CacheStats CS = Eng.cacheStats();
  State.counters["hit_ratio"] = benchmark::Counter(
      CS.Lookups ? static_cast<double>(CS.Hits) / CS.Lookups : 0);
  exportLatencyHistogram(State, Lat, "warm");
}

void registerAll() {
  // Facts a reader needs to interpret the scaling and cache numbers: how
  // many CPUs backed the thread args, and the cold sweep's cache shape.
  suiteMetadata()["cpus"] = std::to_string(affinityCpus());
  suiteMetadata()["thread_args"] = "1,2,4,8";
  suiteMetadata()["jobs_per_batch"] = std::to_string(JobsPerBatch);
  suiteMetadata()["cold_cache_capacity"] = "64";
  suiteMetadata()["cold_corpus"] = "512";
  benchmark::RegisterBenchmark("engine/batch_jobs", batchJobs)
      ->Arg(1)
      ->Arg(2)
      ->Arg(4)
      ->Arg(8)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::RegisterBenchmark("engine/diff_sweep", diffSweep)
      ->Arg(1)
      ->Arg(8)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::RegisterBenchmark("engine/compile_cold", compileCold)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("engine/compile_disk_warm", compileDiskWarm)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("engine/compile_warm", compileWarm)
      ->Unit(benchmark::kMicrosecond);
}

[[maybe_unused]] const bool Registered = (registerAll(), true);

} // namespace

CMM_BENCH_MAIN(engine);
