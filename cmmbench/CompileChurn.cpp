//===- cmmbench/CompileChurn.cpp - Workload compile_churn -----------------===//
//
// Part of cmmex (see DESIGN.md and cmmbench/README.md).
//
// Closed loop (2*nproc clients, nproc workers) where every job carries a
// CompileRequest drawn Zipf(1.0) from a seeded corpus of 4096 generated
// programs, compiled through the engine's cache (capacity 256, no disk
// tier). The corpus is larger than the cache, so misses recompile: the
// compile pipeline (syntax/ir, opt, and the bytecode compiler and fusion in
// vm) and the cache's hit ratio dominate, and each run is small.
//
// Set-up starts the engine and fills the cache with the 256 most popular
// programs. The traced run replays a sample of the missed programs through
// each compile stage separately, giving per-stage times and sizes.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "costmodel/RandomProgram.h"
#include "ir/Translate.h"
#include "ir/Validate.h"
#include "support/Rng.h"
#include "vm/Bytecode.h"
#include "vm/Fuse.h"

#include <algorithm>
#include <numeric>

using namespace cmm;
using namespace cmmbench;

namespace {

constexpr size_t CorpusSize = 4096;
constexpr size_t CacheCapacity = 256;
/// Missed programs replayed stage by stage in the traced run.
constexpr size_t ReplaySample = 512;
/// Replay spans get request ids above every op's.
constexpr uint64_t ReplayReqBase = uint64_t(1) << 40;
constexpr uint32_t Inputs[] = {0, 1, 3, 7, 12, 100};

struct Program {
  engine::CompileRequest Req;
  DispatchTechnique Tech = DispatchTechnique::CutGenerated;
  uint32_t Input = 0;
};

std::vector<Program> makeCorpus(uint64_t Seed) {
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 0x636f6d70);
  std::vector<Program> Corpus(CorpusSize);
  for (size_t K = 0; K < CorpusSize; ++K) {
    Program &P = Corpus[K];
    P.Tech = AllDispatchTechniques[K % std::size(AllDispatchTechniques)];
    RandomProgramOptions O;
    O.NumProcs = 2 + unsigned(K % 11);
    O.Strategy = P.Tech;
    P.Req.Sources = {generateRandomProgram(R.next(), O)};
    P.Req.Optimize = R.chance(1, 2);
    P.Req.Opt.PlaceCalleeSaves = P.Req.Optimize && R.chance(1, 4);
    P.Input = Inputs[R.below(std::size(Inputs))];
  }
  return Corpus;
}

engine::Job jobFor(const Program &P, engine::Backend B) {
  engine::Job J;
  J.Request = P.Req;
  J.B = B;
  J.Args = b32s({P.Input});
  J.Dispatcher = dispatcherFor(P.Tech);
  return J;
}

/// One program's trip through the compile stages, each timed alone.
struct Replay {
  /// Start, then the end of each stage: ir, opt, bytecode, fuse.
  Clock::time_point At[5];
  double IrUs = 0, OptUs = 0, BytecodeUs = 0, FuseUs = 0;
  uint64_t Nodes = 0, Changes = 0, AlsoEdges = 0, Instrs = 0;
  int64_t NodesDelta = 0;
  uint64_t Fused = 0, Missed = 0;
  bool Optimized = false, Ok = false;
};

Replay replay(const engine::CompileRequest &Req) {
  Replay Rp;
  Rp.Optimized = Req.Optimize;
  Clock::time_point T0 = Clock::now();
  DiagnosticEngine Diags;
  std::unique_ptr<IrProgram> Prog =
      compileProgram(Req.Sources, Diags, Req.IncludeStdLib);
  Clock::time_point T1 = Clock::now();
  if (!Prog)
    return Rp;
  for (const auto &P : Prog->Procs)
    Rp.Nodes += P->Nodes.size();
  Clock::time_point T2 = T1;
  if (Req.Optimize) {
    // The cache's compile re-validates after optimizing; so does this.
    OptReport R = optimizeProgram(*Prog, Req.Opt);
    DiagnosticEngine VDiags;
    if (!R.ValidationErrors.empty() || !validateProgram(*Prog, VDiags))
      return Rp;
    T2 = Clock::now();
    for (const PassStat &S : R.Passes) {
      Rp.Changes += S.Changes;
      Rp.NodesDelta += S.NodesDelta;
    }
    for (const auto &P : Prog->Procs)
      if (!P->isYieldIntrinsic())
        Rp.AlsoEdges += countAlsoEdges(*P);
  }
  auto Bc = std::make_shared<const CompiledProgram>(compileToBytecode(*Prog));
  Clock::time_point T3 = Clock::now();
  std::shared_ptr<const ThreadedProgram> Tp = fuseProgram(Bc);
  Clock::time_point T4 = Clock::now();
  for (const CompiledProc &P : Bc->Procs)
    Rp.Instrs += P.Code.size();
  Rp.Fused = Tp->Fusion.FusedSites;
  Rp.Missed = Tp->Fusion.MissedSites;
  Rp.IrUs = usBetween(T0, T1);
  Rp.OptUs = usBetween(T1, T2);
  Rp.BytecodeUs = usBetween(T2, T3);
  Rp.FuseUs = usBetween(T3, T4);
  Rp.At[0] = T0, Rp.At[1] = T1, Rp.At[2] = T2, Rp.At[3] = T3, Rp.At[4] = T4;
  Rp.Ok = true;
  return Rp;
}

struct State {
  std::unique_ptr<engine::Engine> E;
};

} // namespace

Outcome cmmbench::runCompileChurn(const RunConfig &C, Tracer *T) {
  Outcome Out;
  std::vector<Program> Corpus = makeCorpus(C.Seed);

  // Zipf(1.0) popularity over a seeded ranking of the corpus.
  std::vector<uint32_t> ByRank(CorpusSize);
  std::iota(ByRank.begin(), ByRank.end(), 0u);
  {
    Rng R(C.Seed ^ 0x7a697066);
    for (size_t K = CorpusSize - 1; K > 0; --K)
      std::swap(ByRank[K], ByRank[R.below(K + 1)]);
  }
  std::vector<double> Cdf(CorpusSize);
  double Acc = 0;
  for (size_t K = 0; K < CorpusSize; ++K)
    Cdf[K] = (Acc += 1.0 / double(K + 1));
  for (double &V : Cdf)
    V /= Acc;

  double SetupS = 0;
  std::unique_ptr<State> S = setUpMedian<State>(
      C.SetupReps,
      [&] {
        auto St = std::make_unique<State>();
        engine::EngineOptions O;
        O.Threads = C.Nproc;
        O.CacheCapacity = CacheCapacity;
        St->E = std::make_unique<engine::Engine>(O);
        St->E->pool().parallelFor(0, CacheCapacity, [&](uint64_t Rank) {
          St->E->compile(Corpus[ByRank[Rank]].Req);
        });
        return St;
      },
      SetupS);

  Clock::time_point Start = Clock::now();
  ClosedLoop L;
  L.Clients = 2 * C.Nproc;
  L.TimedFrom = after(Start, warmupSeconds(C.Seconds));
  L.Stop = after(Start, C.Seconds);
  L.Make = [&](uint64_t Seq, uint32_t &Item) {
    Rng R(C.Seed ^ (Seq * 0xd1b54a32d192ed03ull));
    double U = double(R.below(1u << 30)) / double(1u << 30);
    size_t Rank = size_t(std::upper_bound(Cdf.begin(), Cdf.end(), U) -
                         Cdf.begin());
    Item = ByRank[std::min(Rank, CorpusSize - 1)];
    engine::Backend B = backendMix(R);
    return jobFor(Corpus[Item], B);
  };
  PhaseSnaps Snaps;
  std::vector<OpRecord> Ops = runClosedLoop(*S->E, L, T, Snaps);

  // Answers: the tree walker on each distinct program, unoptimized.
  std::vector<uint32_t> Seen;
  for (const OpRecord &R : Ops)
    Seen.push_back(R.Item);
  std::sort(Seen.begin(), Seen.end());
  Seen.erase(std::unique(Seen.begin(), Seen.end()), Seen.end());
  std::map<uint32_t, uint32_t> Expected;
  {
    std::vector<engine::Job> Ref;
    for (uint32_t P : Seen) {
      engine::Job J = jobFor(Corpus[P], engine::Backend::Walk);
      J.Request.Optimize = false;
      J.Request.Opt = OptOptions();
      Ref.push_back(std::move(J));
    }
    std::vector<engine::JobResult> R = runAll(Ref, C.Nproc);
    for (size_t K = 0; K < R.size(); ++K) {
      if (!R[K].ok() || R[K].Results.size() != 1)
        Out.fail("reference run of program " + std::to_string(Seen[K]) +
                 " did not halt with one result");
      else
        Expected[Seen[K]] = uint32_t(R[K].Results[0].Raw);
    }
  }
  checkAnswers(
      Ops,
      [&](uint32_t P) -> std::optional<uint32_t> {
        auto It = Expected.find(P);
        if (It == Expected.end())
          return std::nullopt;
        return It->second;
      },
      C.CorruptExpected, Out);
  std::map<uint32_t, uint64_t> Steps = checkStepsAgree(Ops, Out);

  double TimedSeconds = usBetween(L.TimedFrom, L.Stop) / 1e6;
  loopResults("compile_churn: " + std::to_string(Seen.size()) +
                  " distinct programs",
              Ops, TimedSeconds, SetupS, Snaps, Out);

  if (!T)
    return Out;
  engineLayerMetrics(Ops, Snaps, TimedSeconds, Out);
  stepsMetrics(Steps, [&](uint32_t P) { return Corpus[P].Tech; }, Out);

  // Replay: the first ReplaySample distinct programs that missed, each
  // through compileProgram / optimizeProgram / compileToBytecode /
  // fuseProgram, on the pool's threads as the misses ran.
  std::map<uint32_t, std::pair<uint64_t, double>> MissUs; // count, sum
  for (const OpRecord &R : Ops)
    if (!R.CacheHit) {
      auto &[N, Us] = MissUs[R.Item];
      ++N;
      Us += R.CompileUs;
    }
  std::vector<uint32_t> Sample;
  for (auto &[P, V] : MissUs)
    if (Sample.size() < ReplaySample)
      Sample.push_back(P);
  std::vector<Replay> Rp(Sample.size());
  S->E->pool().parallelFor(0, Sample.size(), [&](uint64_t K) {
    Rp[K] = replay(Corpus[Sample[K]].Req);
  });
  Tracer::Buffer &Buf = T->buffer();

  std::vector<double> IrUs, OptUs, BcUs, FuseUs;
  double Nodes = 0, Changes = 0, NodesDelta = 0, Also = 0, Instrs = 0;
  double Fused = 0, Missed = 0, StageUs = 0, CacheUs = 0;
  size_t NOpt = 0;
  for (size_t K = 0; K < Rp.size(); ++K) {
    const Replay &R = Rp[K];
    if (!R.Ok) {
      Out.fail("replay of program " + std::to_string(Sample[K]) + " failed");
      continue;
    }
    uint64_t Req = ReplayReqBase + K;
    uint64_t Root = Buf.add("replay.program", "compile", 0, Req, R.At[0],
                            R.At[4]);
    Buf.add("ir.compile", "ir", Root, Req, R.At[0], R.At[1]);
    if (R.Optimized)
      Buf.add("opt.optimize", "opt", Root, Req, R.At[1], R.At[2]);
    Buf.add("vm.bytecode", "vm", Root, Req, R.At[2], R.At[3]);
    Buf.add("vm.fuse", "vm", Root, Req, R.At[3], R.At[4]);
    IrUs.push_back(R.IrUs);
    BcUs.push_back(R.BytecodeUs);
    FuseUs.push_back(R.FuseUs);
    Nodes += double(R.Nodes);
    Instrs += double(R.Instrs);
    Fused += double(R.Fused);
    Missed += double(R.Missed);
    if (R.Optimized) {
      ++NOpt;
      OptUs.push_back(R.OptUs);
      Changes += double(R.Changes);
      NodesDelta += double(R.NodesDelta);
      Also += double(R.AlsoEdges);
    }
    // Reconcile against what the cache measured for the same programs:
    // each miss paid the front end plus the optimizer.
    auto [Misses, Us] = MissUs[Sample[K]];
    StageUs += double(Misses) * (R.IrUs + R.OptUs);
    CacheUs += Us;
  }
  double N = double(std::max<size_t>(IrUs.size(), 1));
  double NO = double(std::max<size_t>(NOpt, 1));
  Out.layer("replay.programs", double(IrUs.size()), "count");
  Out.layer("replay.reconcile", CacheUs > 0 ? StageUs / CacheUs : 0, "ratio");
  Out.layer("ir.us.p50", percentile(IrUs, 50), "us");
  Out.layer("ir.us.p99", percentile(IrUs, 99), "us");
  Out.layer("ir.nodes", Nodes / N, "count");
  Out.layer("opt.us.p50", percentile(OptUs, 50), "us");
  Out.layer("opt.us.p99", percentile(OptUs, 99), "us");
  Out.layer("opt.changes", Changes / NO, "count");
  Out.layer("opt.nodes_delta", NodesDelta / NO, "count");
  Out.layer("opt.also_edges", Also / NO, "count");
  Out.layer("vm.bytecode_us.p50", percentile(BcUs, 50), "us");
  Out.layer("vm.bytecode_us.p99", percentile(BcUs, 99), "us");
  Out.layer("vm.bytecode_instrs", Instrs / N, "count");
  Out.layer("vm.fuse_us.p50", percentile(FuseUs, 50), "us");
  Out.layer("vm.fusion_hit_ratio",
            Fused + Missed > 0 ? Fused / (Fused + Missed) : 0, "ratio");
  traceLayerMetrics(*T, "engine.job", Out);
  return Out;
}
