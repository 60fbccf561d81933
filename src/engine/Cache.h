//===- engine/Cache.h - Content-hash artifact cache -------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine's artifact cache: CompileRequest -> ProgramArtifact, keyed by
/// the 128-bit content hash of cacheKeyFor (docs/ENGINE.md). Concurrent
/// requests for one key are deduplicated single-flight — the first caller
/// compiles inline while the rest block on the slot's condition variable —
/// and a bounded LRU evicts cold entries (holders keep evicted artifacts
/// alive through their shared_ptr, so eviction is invisible to in-flight
/// jobs).
///
/// Internal to src/engine; embedders go through Engine::compile.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_ENGINE_CACHE_H
#define CMM_ENGINE_CACHE_H

#include "engine/Engine.h"
#include "obs/Metrics.h"

#include <list>
#include <thread>

namespace cmm::engine {

class ModuleCache {
public:
  /// \p Capacity in artifacts; 0 = unbounded. Metrics (lookups, hits,
  /// misses, evictions, single-flight joins, compile latency, disk tier)
  /// land in \p Reg when given, in MetricsRegistry::null() otherwise — the
  /// engine passes its registry so the counters appear in snapshots.
  /// A non-empty \p CacheDir enables the persistent tier (ArtifactStore):
  /// misses consult `<CacheDir>/<keyhex>.cmmart` before compiling, and
  /// successful compiles are written back.
  explicit ModuleCache(size_t Capacity, MetricsRegistry *Reg = nullptr,
                       std::string CacheDir = {});

  /// The cached artifact for \p Req, compiling it (once, whatever the
  /// concurrency) on first use. Never null. \p WasHit, when non-null,
  /// reports whether the artifact existed (or was already in flight)
  /// before this call.
  std::shared_ptr<const ProgramArtifact>
  getOrCompile(const CompileRequest &Req, bool *WasHit = nullptr);

  CacheStats stats() const;

private:
  struct Slot {
    std::mutex Mu;
    std::condition_variable Cv;
    bool Ready = false;
    std::shared_ptr<const ProgramArtifact> Art;
    /// The thread that compiled Art, and so allocated its memory.
    std::thread::id Compiler = std::this_thread::get_id();
  };

  /// Map value: the slot plus this key's position in the LRU list.
  struct Entry {
    std::shared_ptr<Slot> S;
    std::list<CacheKey>::iterator LruIt;
  };

  /// Publishes the owner's result into \p S, wakes the waiters, and — when
  /// the compile failed — removes the key from the index again so the next
  /// request retries instead of being served the cached error forever.
  std::shared_ptr<const ProgramArtifact>
  publish(const CacheKey &Key, const std::shared_ptr<Slot> &S,
          std::shared_ptr<const ProgramArtifact> Art);

  mutable std::mutex Mu;
  std::unordered_map<CacheKey, Entry, CacheKeyHash> Map;
  std::list<CacheKey> Lru; ///< front = most recently used
  /// Evicted slots by compiling thread, torn down by that thread on its next
  /// lookup: glibc frees a chunk under its allocating arena's lock, so a
  /// teardown on another thread contends with the compiler's allocations.
  /// At most Capacity wait here; past that the evicting thread frees.
  std::unordered_map<std::thread::id, std::vector<std::shared_ptr<Slot>>>
      Evicted;
  size_t EvictedSlots = 0;
  size_t Capacity;
  /// Persistent-tier directory; empty = memory-only.
  std::string CacheDir;

  // Metric name catalog: docs/OBSERVABILITY.md § "Engine telemetry".
  Counter &LookupsC;    ///< cache.lookups
  Counter &HitsC;       ///< cache.hits
  Counter &MissesC;     ///< cache.misses
  Counter &IrCompilesC; ///< cache.ir_compiles
  Counter &EvictionsC;  ///< cache.evictions
  Counter &JoinsC;      ///< cache.singleflight_joins
  Counter &DiskHitsC;   ///< cache.disk_hits
  Counter &DiskWritesC; ///< cache.disk_writes
  Counter &DiskErrorsC; ///< cache.disk_errors
  Histogram &CompileMicrosH; ///< cache.compile_micros
  /// Shared with every artifact this cache compiles, so an artifact that
  /// outlives the cache can still count its first bytecode() compile. The
  /// registry sees it as the cache.bytecode_compiles probe (the probe holds
  /// its own shared_ptr, so it stays readable after the cache dies; the
  /// engine destroys its registry last).
  std::shared_ptr<std::atomic<uint64_t>> BcCompiles =
      std::make_shared<std::atomic<uint64_t>>(0);
  /// Threaded-tier accounting, shared the same way; surfaced as the
  /// vm.threaded_compiles / vm.fusion_hits / vm.fusion_misses /
  /// vm.threaded_compile_micros probes.
  std::shared_ptr<ThreadedCounters> TCnt =
      std::make_shared<ThreadedCounters>();
};

} // namespace cmm::engine

#endif // CMM_ENGINE_CACHE_H
