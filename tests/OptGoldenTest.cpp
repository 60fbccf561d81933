//===- tests/OptGoldenTest.cpp - Golden optimized-IR hashes ---------------===//
//
// Part of cmmex (see DESIGN.md). The optimizer's output is pinned byte for
// byte: for seeds 0..199 of the differential harness's generator, every
// dispatch technique, and every optimizing configuration of
// diffOptConfigs(), the canonical serialization (ir/Serialize.h) of the
// optimized program and the deterministic counts of its OptReport must hash
// to the values committed in tests/golden/opt_ir_hashes.txt.
//
// One line per (config, seed): the FNV-1a hash of the five techniques'
// serializeIr bytes, then the hash of their OptReport counts (every PassStat
// field but the wall time, and every rewrite counter). A refactor of the
// optimizer must leave both columns unchanged. On a mismatch the test
// writes the complete recomputed table to opt_ir_hashes.actual.txt in its
// working directory.
//
//===----------------------------------------------------------------------===//

#include "costmodel/DiffHarness.h"
#include "costmodel/DispatchWorkloads.h"
#include "ir/Serialize.h"
#include "ir/Translate.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

using namespace cmm;

namespace {

constexpr uint64_t NumSeeds = 200;

struct Fnv {
  uint64_t H = 0xcbf29ce484222325ull;
  void bytes(const uint8_t *P, size_t N) {
    for (size_t I = 0; I < N; ++I) {
      H ^= P[I];
      H *= 0x100000001b3ull;
    }
  }
  void u64(uint64_t V) {
    uint8_t B[8];
    for (unsigned I = 0; I < 8; ++I)
      B[I] = uint8_t(V >> (8 * I));
    bytes(B, 8);
  }
};

struct Hashes {
  uint64_t Ir = 0, Report = 0;
};

Hashes hashSeed(uint64_t Seed, const DiffOptConfig &Cfg) {
  Fnv Ir, Rep;
  for (DispatchTechnique T : AllDispatchTechniques) {
    RandomProgramOptions G = DiffOptions().Gen;
    G.Strategy = T;
    DiagnosticEngine Diags;
    std::unique_ptr<IrProgram> Prog =
        compileProgram({generateRandomProgram(Seed, G)}, Diags);
    if (!Prog) {
      ADD_FAILURE() << "seed " << Seed << " failed to compile:\n"
                    << Diags.str();
      return {};
    }
    OptReport R = optimizeProgram(*Prog, Cfg.Opts);
    ByteWriter W;
    serializeIr(*Prog, W);
    Ir.bytes(W.buffer().data(), W.buffer().size());
    for (const PassStat &S : R.Passes) {
      Rep.u64(S.Runs);
      Rep.u64(S.Changes);
      Rep.u64(uint64_t(S.NodesDelta));
      Rep.u64(uint64_t(S.AlsoEdgesDelta));
    }
    for (uint64_t C :
         {uint64_t(R.ConstProp.ExprsRewritten),
          uint64_t(R.ConstProp.BranchesResolved),
          uint64_t(R.CopyProp.UsesRewritten),
          uint64_t(R.DeadCode.AssignsRemoved),
          uint64_t(R.CalleeSaves.CallsAnnotated),
          uint64_t(R.CalleeSaves.VarsPlaced),
          uint64_t(R.CalleeSaves.VarsExcludedByCutEdges),
          uint64_t(R.CalleeSaves.VarsSpilledForPressure),
          uint64_t(R.CalleeSaves.CutHazardFlushes),
          uint64_t(R.ValidationErrors.size())})
      Rep.u64(C);
  }
  return {Ir.H, Rep.H};
}

std::string line(const std::string &Cfg, uint64_t Seed, Hashes H) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%s %" PRIu64 " %016" PRIx64 " %016" PRIx64,
                Cfg.c_str(), Seed, H.Ir, H.Report);
  return Buf;
}

/// The committed table, keyed by config name then seed.
const std::map<std::string, std::map<uint64_t, std::string>> &golden() {
  static const auto Table = [] {
    std::map<std::string, std::map<uint64_t, std::string>> T;
    std::ifstream In(CMM_GOLDEN_DIR "/opt_ir_hashes.txt");
    std::string L;
    while (std::getline(In, L)) {
      if (L.empty() || L[0] == '#')
        continue;
      std::istringstream S(L);
      std::string Cfg;
      uint64_t Seed = 0;
      S >> Cfg >> Seed;
      T[Cfg][Seed] = L;
    }
    return T;
  }();
  return Table;
}

/// Writes the whole recomputed table next to the test, for review.
void writeActualTable() {
  std::ofstream Out("opt_ir_hashes.actual.txt");
  Out << "# config seed ir-hash report-hash (tests/OptGoldenTest.cpp)\n";
  for (const DiffOptConfig &C : diffOptConfigs())
    if (C.Optimize)
      for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed)
        Out << line(C.Name, Seed, hashSeed(Seed, C)) << "\n";
}

class OptGolden : public testing::TestWithParam<std::string> {};

TEST_P(OptGolden, MatchesCommittedHashes) {
  const DiffOptConfig *Cfg = nullptr;
  std::vector<DiffOptConfig> Configs = diffOptConfigs();
  for (const DiffOptConfig &C : Configs)
    if (C.Name == GetParam())
      Cfg = &C;
  ASSERT_TRUE(Cfg) << GetParam();
  auto It = golden().find(Cfg->Name);
  unsigned Mismatches = 0;
  for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed) {
    std::string Got = line(Cfg->Name, Seed, hashSeed(Seed, *Cfg));
    std::string Expected = "<missing>";
    if (It != golden().end() && It->second.count(Seed))
      Expected = It->second.at(Seed);
    if (Got != Expected && ++Mismatches <= 5)
      ADD_FAILURE() << "want " << Expected << "\n got  " << Got;
  }
  EXPECT_EQ(Mismatches, 0u);
  if (Mismatches)
    writeActualTable();
}

std::vector<std::string> optimizingConfigs() {
  std::vector<std::string> Names;
  for (const DiffOptConfig &C : diffOptConfigs())
    if (C.Optimize)
      Names.push_back(C.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, OptGolden, testing::ValuesIn(optimizingConfigs()),
    [](const testing::TestParamInfo<std::string> &I) {
      std::string N = I.param;
      for (char &C : N)
        if (C == '-')
          C = '_';
      return N;
    });

} // namespace
