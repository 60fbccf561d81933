//===- tests/FrontGoldenTest.cpp - Golden unoptimized-IR hashes -----------===//
//
// Part of cmmex (see DESIGN.md). The front end's output is pinned byte for
// byte: for seeds 0..199 of the differential harness's generator and every
// dispatch technique, the canonical serialization (ir/Serialize.h) of the
// *unoptimized* program compileProgram returns must hash to the values
// committed in tests/golden/ir_hashes.txt. The serialization carries every
// node's and expression's source location and the per-procedure variable
// tables, so a front-end refactor that moves a Symbol id, a location or an
// iteration order fails here before it reaches the optimizer's golden.
//
// One line per (variant, seed): the FNV-1a hash of the five techniques'
// serializeIr bytes. The `stdlib` variant links the standard library after
// the program, as compileProgram does by default. The `nostdlib` variant
// leaves it out; a program that then fails to link contributes its
// diagnostics text instead. The `stdlibfirst` variant passes the standard
// library as the first of two sources, so its names are interned first.
// On a mismatch the test writes the complete recomputed table to
// ir_hashes.actual.txt in its working directory.
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
  void bytes(const void *Data, size_t N) {
    const auto *P = static_cast<const uint8_t *>(Data);
    for (size_t I = 0; I < N; ++I) {
      H ^= P[I];
      H *= 0x100000001b3ull;
    }
  }
};

enum class Link { StdLib, NoStdLib, StdLibFirst };

struct Variant {
  const char *Name;
  Link How;
};
constexpr Variant Variants[] = {{"stdlib", Link::StdLib},
                                {"nostdlib", Link::NoStdLib},
                                {"stdlibfirst", Link::StdLibFirst}};

void PrintTo(const Variant &V, std::ostream *OS) { *OS << V.Name; }

std::unique_ptr<IrProgram> compileAs(const std::string &Source, Link How,
                                     DiagnosticEngine &Diags) {
  switch (How) {
  case Link::StdLib:
    return compileProgram({Source}, Diags);
  case Link::NoStdLib:
    return compileProgram({Source}, Diags, /*IncludeStdLib=*/false);
  case Link::StdLibFirst:
    return compileProgram({stdLibSource(), Source}, Diags,
                          /*IncludeStdLib=*/false);
  }
  return nullptr;
}

uint64_t hashSeed(uint64_t Seed, const Variant &V) {
  Fnv H;
  for (DispatchTechnique T : AllDispatchTechniques) {
    RandomProgramOptions G = DiffOptions().Gen;
    G.Strategy = T;
    DiagnosticEngine Diags;
    std::unique_ptr<IrProgram> Prog =
        compileAs(generateRandomProgram(Seed, G), V.How, Diags);
    if (!Prog) {
      std::string Text = "error\n" + Diags.str();
      H.bytes(Text.data(), Text.size());
      continue;
    }
    ByteWriter W;
    serializeIr(*Prog, W);
    H.bytes(W.buffer().data(), W.buffer().size());
  }
  return H.H;
}

std::string line(const char *Variant, uint64_t Seed, uint64_t Hash) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%s %" PRIu64 " %016" PRIx64, Variant, Seed,
                Hash);
  return Buf;
}

/// The committed table, keyed by variant then seed.
const std::map<std::string, std::map<uint64_t, std::string>> &golden() {
  static const auto Table = [] {
    std::map<std::string, std::map<uint64_t, std::string>> T;
    std::ifstream In(CMM_GOLDEN_DIR "/ir_hashes.txt");
    std::string L;
    while (std::getline(In, L)) {
      if (L.empty() || L[0] == '#')
        continue;
      std::istringstream S(L);
      std::string Name;
      uint64_t Seed = 0;
      S >> Name >> Seed;
      T[Name][Seed] = L;
    }
    return T;
  }();
  return Table;
}

/// Writes the whole recomputed table next to the test, for review.
void writeActualTable() {
  std::ofstream Out("ir_hashes.actual.txt");
  Out << "# variant seed ir-hash (tests/FrontGoldenTest.cpp)\n";
  for (const Variant &V : Variants)
    for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed)
      Out << line(V.Name, Seed, hashSeed(Seed, V)) << "\n";
}

class FrontGolden : public testing::TestWithParam<Variant> {};

TEST_P(FrontGolden, MatchesCommittedHashes) {
  const Variant &V = GetParam();
  auto It = golden().find(V.Name);
  unsigned Mismatches = 0;
  for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed) {
    std::string Got = line(V.Name, Seed, hashSeed(Seed, V));
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

INSTANTIATE_TEST_SUITE_P(Variants, FrontGolden, testing::ValuesIn(Variants),
                         [](const testing::TestParamInfo<Variant> &I) {
                           return std::string(I.param.Name);
                         });

} // namespace
