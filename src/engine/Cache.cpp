//===- engine/Cache.cpp ---------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "engine/Cache.h"

#include "engine/ArtifactStore.h"
#include "ir/Translate.h"
#include "ir/Validate.h"
#include "vm/Threaded.h"
#include "vm/Vm.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

using namespace cmm;
using namespace cmm::engine;

//===----------------------------------------------------------------------===//
// Content hashing
//===----------------------------------------------------------------------===//

namespace {

/// FNV-1a 64. Two lanes give the 128-bit key. FNV-1a is affine in its
/// basis, so two lanes that hash the *same* byte stream from different
/// bases differ only by a function of the basis pair and the length — the
/// key would carry ~64 bits of entropy, not 128. The salted lane therefore
/// interleaves a running byte-position salt into its input stream, making
/// the two hashed strings genuinely different, and the lanes are entangled
/// in cacheKeyFor. Multi-byte values are absorbed LSB-first explicitly, so
/// keys (and the artifact files named after them) are host-independent.
struct Fnv {
  uint64_t H;
  uint64_t Pos = 0;
  bool Salted;
  explicit Fnv(uint64_t Basis, bool Salted = false)
      : H(Basis), Salted(Salted) {}
  void byte(uint8_t B) {
    H ^= B;
    H *= 0x100000001b3ull;
    if (Salted) {
      H ^= uint8_t(Pos++);
      H *= 0x100000001b3ull;
    }
  }
  void bytes(const void *P, size_t N) {
    const uint8_t *B = static_cast<const uint8_t *>(P);
    for (size_t I = 0; I < N; ++I)
      byte(B[I]);
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      byte(uint8_t(V >> (8 * I)));
  }
  void u8(uint8_t V) { byte(V); }
  void str(const std::string &S) {
    u64(S.size()); // length-prefixed: {"ab","c"} != {"a","bc"}
    bytes(S.data(), S.size());
  }
};

void hashRequest(Fnv &F, const CompileRequest &Req) {
  F.bytes("cmmex-artifact-v2", 17);
  F.u8(Req.IncludeStdLib);
  F.u8(Req.Optimize);
  // Every semantically meaningful optimizer field. Verbose is excluded: it
  // only changes stderr chatter, never the artifact.
  const OptOptions &O = Req.Opt;
  F.u8(O.WithExceptionalEdges);
  F.u64(O.Rounds);
  F.u8(O.RunConstProp);
  F.u8(O.RunCopyProp);
  F.u8(O.RunDeadCode);
  F.u8(O.PlaceCalleeSaves);
  F.u64(O.CalleeSaves.NumRegisters);
  F.u8(O.CalleeSaves.RespectCutEdges);
  F.u8(O.ValidateEachPass);
  F.u64(Req.Sources.size());
  for (const std::string &S : Req.Sources)
    F.str(S);
}

} // namespace

CacheKey cmm::engine::cacheKeyFor(const CompileRequest &Req) {
  Fnv A(0xcbf29ce484222325ull);
  Fnv B(0x84222325cbf29ce4ull, /*Salted=*/true);
  hashRequest(A, Req);
  hashRequest(B, Req);
  B.u64(A.H); // entangle the lanes
  return {A.H, B.H};
}

std::string CacheKey::str() const {
  char Buf[36];
  std::snprintf(Buf, sizeof Buf, "%016llx%016llx",
                static_cast<unsigned long long>(Hi),
                static_cast<unsigned long long>(Lo));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Artifact compilation
//===----------------------------------------------------------------------===//

namespace cmm::engine {

/// The one compile path (cached and uncached callers both land here): parse
/// + translate + link, optionally optimize, then re-validate. Error strings
/// keep the phase-prefixed form the differential harness reports.
void populateArtifact(ProgramArtifact &A, const CompileRequest &Req,
                      std::shared_ptr<std::atomic<uint64_t>> BcCounter,
                      std::shared_ptr<ThreadedCounters> TCounters) {
  A.Key = cacheKeyFor(Req);
  A.BcCompiles = std::move(BcCounter);
  A.TCnt = std::move(TCounters);
  DiagnosticEngine Diags;
  std::unique_ptr<IrProgram> Prog =
      compileProgram(Req.Sources, Diags, Req.IncludeStdLib);
  if (!Prog) {
    A.Error = "compile failed: " + Diags.str();
    return;
  }
  if (Req.Optimize) {
    A.Opt = optimizeProgram(*Prog, Req.Opt);
    if (!A.Opt.ValidationErrors.empty()) {
      A.Error = "pass validation failed: " + A.Opt.ValidationErrors.front();
      return;
    }
    DiagnosticEngine VDiags;
    if (!validateProgram(*Prog, VDiags)) {
      A.Error = "post-pipeline validation failed: " + VDiags.str();
      return;
    }
  }
  // Published const from here on: jobs on any thread may now share it.
  A.Prog = std::shared_ptr<const IrProgram>(std::move(Prog));
}

} // namespace cmm::engine

void ProgramArtifact::failErrored(const char *What) const {
  // A null program here means the caller ignored error() and asked an
  // errored artifact to run anyway; dereferencing would be silent UB.
  std::fprintf(stderr,
               "cmmex: ProgramArtifact::%s called on an errored artifact "
               "(check ok() first): %s\n",
               What, Error.empty() ? "<no error recorded>" : Error.c_str());
  std::abort();
}

std::shared_ptr<const CompiledProgram> ProgramArtifact::bytecode() const {
  if (!Prog)
    failErrored("bytecode");
  std::lock_guard<std::mutex> Lock(BcMu);
  if (!Bc) {
    Bc = std::make_shared<const CompiledProgram>(compileToBytecode(*Prog));
    if (BcCompiles)
      BcCompiles->fetch_add(1, std::memory_order_relaxed);
  }
  return Bc;
}

std::shared_ptr<const ThreadedProgram> ProgramArtifact::threaded() const {
  if (!Prog)
    failErrored("threaded");
  // bytecode() first, outside TMu: it takes its own lock, and the fused
  // stream is a pure function of the bytecode.
  std::shared_ptr<const CompiledProgram> B = bytecode();
  std::lock_guard<std::mutex> Lock(TMu);
  if (!Tp) {
    auto T0 = std::chrono::steady_clock::now();
    Tp = fuseProgram(std::move(B));
    if (TCnt) {
      TCnt->Compiles.fetch_add(1, std::memory_order_relaxed);
      TCnt->FusionHits.fetch_add(Tp->Fusion.FusedSites,
                                 std::memory_order_relaxed);
      TCnt->FusionMisses.fetch_add(Tp->Fusion.MissedSites,
                                   std::memory_order_relaxed);
      TCnt->Micros.fetch_add(
          uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - T0)
                       .count()),
          std::memory_order_relaxed);
    }
  }
  return Tp;
}

std::unique_ptr<Executor> ProgramArtifact::newExecutor(Backend B) const {
  if (!Prog)
    failErrored("newExecutor");
  switch (B) {
  case Backend::Vm:
    return std::make_unique<VmMachine>(*Prog, bytecode());
  case Backend::Threaded:
    return std::make_unique<ThreadedMachine>(*Prog, threaded());
  case Backend::Walk:
    break;
  }
  return makeExecutor(B, *Prog);
}

std::shared_ptr<const ProgramArtifact>
cmm::engine::compileArtifact(const CompileRequest &Req) {
  auto A = std::make_shared<ProgramArtifact>();
  populateArtifact(*A, Req, nullptr, nullptr);
  return A;
}

//===----------------------------------------------------------------------===//
// ModuleCache
//===----------------------------------------------------------------------===//

namespace {
MetricsRegistry &regOrNull(MetricsRegistry *Reg) {
  return Reg ? *Reg : MetricsRegistry::null();
}
} // namespace

// Handles are wired once at construction; every event after is one relaxed
// atomic add (the registry mutex is never touched on the lookup path).
ModuleCache::ModuleCache(size_t Capacity, MetricsRegistry *RegIn,
                         std::string CacheDirIn)
    : Capacity(Capacity), CacheDir(std::move(CacheDirIn)),
      LookupsC(regOrNull(RegIn).counter("cache.lookups")),
      HitsC(regOrNull(RegIn).counter("cache.hits")),
      MissesC(regOrNull(RegIn).counter("cache.misses")),
      IrCompilesC(regOrNull(RegIn).counter("cache.ir_compiles")),
      EvictionsC(regOrNull(RegIn).counter("cache.evictions")),
      JoinsC(regOrNull(RegIn).counter("cache.singleflight_joins")),
      DiskHitsC(regOrNull(RegIn).counter("cache.disk_hits")),
      DiskWritesC(regOrNull(RegIn).counter("cache.disk_writes")),
      DiskErrorsC(regOrNull(RegIn).counter("cache.disk_errors")),
      CompileMicrosH(regOrNull(RegIn).histogram("cache.compile_micros")) {
  // Bytecode compiles are counted in the artifacts themselves (they may
  // outlive this cache), so the registry samples them through a probe that
  // co-owns the counter.
  auto Bc = BcCompiles;
  regOrNull(RegIn).probe("cache.bytecode_compiles", [Bc] {
    return Bc->load(std::memory_order_relaxed);
  });
  // Threaded-tier accounting lives in the same shared block; each probe
  // co-owns it. vm.threaded_compile_micros is cumulative microseconds (a
  // real Histogram reference could not safely outlive the registry the way
  // artifacts outlive the engine).
  auto T = TCnt;
  regOrNull(RegIn).probe("vm.threaded_compiles", [T] {
    return T->Compiles.load(std::memory_order_relaxed);
  });
  regOrNull(RegIn).probe("vm.fusion_hits", [T] {
    return T->FusionHits.load(std::memory_order_relaxed);
  });
  regOrNull(RegIn).probe("vm.fusion_misses", [T] {
    return T->FusionMisses.load(std::memory_order_relaxed);
  });
  regOrNull(RegIn).probe("vm.threaded_compile_micros", [T] {
    return T->Micros.load(std::memory_order_relaxed);
  });
}

std::shared_ptr<const ProgramArtifact>
ModuleCache::getOrCompile(const CompileRequest &Req, bool *WasHit) {
  const CacheKey Key = cacheKeyFor(Req);
  LookupsC.add(1);

  std::shared_ptr<Slot> S;
  std::vector<std::shared_ptr<Slot>> Reclaimed; // freed below, outside Mu
  bool Owner = false;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (auto It = Evicted.find(std::this_thread::get_id());
        It != Evicted.end()) {
      Reclaimed = std::move(It->second);
      EvictedSlots -= Reclaimed.size();
      Evicted.erase(It);
    }
    auto It = Map.find(Key);
    if (It != Map.end()) {
      HitsC.add(1);
      Lru.splice(Lru.begin(), Lru, It->second.LruIt); // touch
      S = It->second.S;
    } else {
      MissesC.add(1);
      S = std::make_shared<Slot>();
      Lru.push_front(Key);
      Map.emplace(Key, Entry{S, Lru.begin()});
      Owner = true;
      // Evict from the cold end, skipping in-flight slots (their owner
      // still needs to publish into the map's entry... they are removed
      // from the index but stay alive through the waiters' shared_ptr).
      if (Capacity != 0 && Map.size() > Capacity) {
        for (auto Victim = std::prev(Lru.end()); Victim != Lru.begin();) {
          auto Prev = std::prev(Victim);
          auto VIt = Map.find(*Victim);
          bool VictimReady;
          {
            std::lock_guard<std::mutex> SLock(VIt->second.S->Mu);
            VictimReady = VIt->second.S->Ready;
          }
          if (VictimReady) {
            std::shared_ptr<Slot> &V = VIt->second.S;
            if (EvictedSlots < Capacity) {
              Evicted[V->Compiler].push_back(std::move(V));
              ++EvictedSlots;
            } else {
              Reclaimed.push_back(std::move(V));
            }
            Map.erase(VIt);
            Lru.erase(Victim);
            EvictionsC.add(1);
            break;
          }
          Victim = Prev;
        }
      }
    }
  }
  Reclaimed.clear();
  if (WasHit)
    *WasHit = !Owner;

  if (Owner) {
    // Single-flight: compile outside the index lock; racers block on the
    // slot, not on the whole cache. The persistent tier is consulted first:
    // a valid on-disk artifact replaces the whole front-end + bytecode run.
    if (!CacheDir.empty()) {
      std::string DiskErr;
      if (std::shared_ptr<ProgramArtifact> FromDisk = ArtifactStore::loadFile(
              CacheDir, Key, &DiskErr, BcCompiles, TCnt)) {
        DiskHitsC.add(1);
        return publish(Key, S, std::move(FromDisk));
      }
      if (!DiskErr.empty())
        DiskErrorsC.add(1); // file existed but failed validation
    }

    auto T0 = std::chrono::steady_clock::now();
    auto Art = std::make_shared<ProgramArtifact>();
    populateArtifact(*Art, Req, BcCompiles, TCnt);
    IrCompilesC.add(1);
    CompileMicrosH.record(
        uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - T0)
                     .count()));
    // Only good artifacts are persisted: an errored artifact on disk would
    // replay a possibly transient failure into every later process.
    if (!CacheDir.empty() && Art->ok()) {
      if (ArtifactStore::writeFile(CacheDir, *Art))
        DiskWritesC.add(1);
      else
        DiskErrorsC.add(1);
    }
    return publish(Key, S, std::move(Art));
  }

  std::unique_lock<std::mutex> SLock(S->Mu);
  if (!S->Ready) {
    // A hit on a slot whose owner is still compiling: this caller joined
    // the single flight rather than finding a finished artifact.
    JoinsC.add(1);
    S->Cv.wait(SLock, [&] { return S->Ready; });
  }
  return S->Art;
}

std::shared_ptr<const ProgramArtifact>
ModuleCache::publish(const CacheKey &Key, const std::shared_ptr<Slot> &S,
                     std::shared_ptr<const ProgramArtifact> Art) {
  {
    std::lock_guard<std::mutex> SLock(S->Mu);
    S->Art = Art;
    S->Ready = true;
  }
  S->Cv.notify_all();
  // Never cache failures: waiters already joined this flight get the error
  // (correct — they raced the same request), but the index entry is dropped
  // so the next lookup recompiles instead of being poisoned forever. The
  // identity check guards against this key having been evicted and
  // re-populated by an unrelated flight while we compiled.
  if (!Art->ok()) {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Map.find(Key);
    if (It != Map.end() && It->second.S == S) {
      Lru.erase(It->second.LruIt);
      Map.erase(It);
    }
  }
  return Art;
}

CacheStats ModuleCache::stats() const {
  CacheStats St;
  St.Lookups = LookupsC.value();
  St.Hits = HitsC.value();
  St.Misses = MissesC.value();
  St.IrCompiles = IrCompilesC.value();
  St.BytecodeCompiles = BcCompiles->load(std::memory_order_relaxed);
  St.ThreadedCompiles = TCnt->Compiles.load(std::memory_order_relaxed);
  St.Evictions = EvictionsC.value();
  St.SingleFlightJoins = JoinsC.value();
  St.DiskHits = DiskHitsC.value();
  St.DiskWrites = DiskWritesC.value();
  St.DiskErrors = DiskErrorsC.value();
  return St;
}
