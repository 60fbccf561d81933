//===- tests/BytecodeGoldenTest.cpp - Golden bytecode hashes --------------===//
//
// Part of cmmex (see DESIGN.md). The bytecode compiler's output is pinned
// byte for byte: for seeds 0..199 of the differential harness's generator,
// every dispatch technique, and every configuration of diffOptConfigs()
// (the unoptimized "none" one included), the canonical encoding
// (vm/BytecodeIO.h) and the disassembly of the compiled program must hash
// to the values committed in tests/golden/bytecode_hashes.txt.
//
// One line per (config, seed): the FNV-1a hash of the five techniques'
// serializeBytecode bytes, then the hash of their disassemble() listings
// (every procedure, in IrProgram::Procs order). A refactor of the IR or of
// the bytecode compiler must leave both columns unchanged. On a mismatch
// the test writes the complete recomputed table to
// bytecode_hashes.actual.txt in its working directory.
//
//===----------------------------------------------------------------------===//

#include "costmodel/DiffHarness.h"
#include "costmodel/DispatchWorkloads.h"
#include "ir/Translate.h"
#include "vm/BytecodeIO.h"

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
  void bytes(const void *Data, size_t N) {
    const auto *P = static_cast<const uint8_t *>(Data);
    for (size_t I = 0; I < N; ++I) {
      H ^= P[I];
      H *= 0x100000001b3ull;
    }
  }
};

struct Hashes {
  uint64_t Bytes = 0, Listing = 0;
};

Hashes hashSeed(uint64_t Seed, const DiffOptConfig &Cfg) {
  Fnv Bytes, Listing;
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
    if (Cfg.Optimize)
      optimizeProgram(*Prog, Cfg.Opts);
    CompiledProgram C = compileToBytecode(*Prog);
    ByteWriter W;
    serializeBytecode(C, *Prog, W);
    Bytes.bytes(W.buffer().data(), W.buffer().size());
    for (const CompiledProc &P : C.Procs) {
      std::string Text = disassemble(P, *Prog->Names);
      Listing.bytes(Text.data(), Text.size());
    }
  }
  return {Bytes.H, Listing.H};
}

std::string line(const std::string &Cfg, uint64_t Seed, Hashes H) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%s %" PRIu64 " %016" PRIx64 " %016" PRIx64,
                Cfg.c_str(), Seed, H.Bytes, H.Listing);
  return Buf;
}

/// The committed table, keyed by config name then seed.
const std::map<std::string, std::map<uint64_t, std::string>> &golden() {
  static const auto Table = [] {
    std::map<std::string, std::map<uint64_t, std::string>> T;
    std::ifstream In(CMM_GOLDEN_DIR "/bytecode_hashes.txt");
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
  std::ofstream Out("bytecode_hashes.actual.txt");
  Out << "# config seed bytes-hash listing-hash "
         "(tests/BytecodeGoldenTest.cpp)\n";
  for (const DiffOptConfig &C : diffOptConfigs())
    for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed)
      Out << line(C.Name, Seed, hashSeed(Seed, C)) << "\n";
}

class BytecodeGolden : public testing::TestWithParam<std::string> {};

TEST_P(BytecodeGolden, MatchesCommittedHashes) {
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

std::vector<std::string> allConfigs() {
  std::vector<std::string> Names;
  for (const DiffOptConfig &C : diffOptConfigs())
    Names.push_back(C.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BytecodeGolden, testing::ValuesIn(allConfigs()),
    [](const testing::TestParamInfo<std::string> &I) {
      std::string N = I.param;
      for (char &C : N)
        if (C == '-')
          C = '_';
      return N;
    });

} // namespace
