//===- tests/SerializeTest.cpp - Artifact serialization round trips -------===//
//
// Part of cmmex (see DESIGN.md). Pins the persistent-cache encodings
// (docs/ENGINE.md § "Persistent cache"):
//
//  - the binary IR encoding (ir/Serialize.h) is canonical —
//    serialize(deserialize(serialize(P))) is byte-identical — and the
//    decoded program is observationally equal to the original;
//  - the textual IL (ir/IlText.h) is a faithful sibling:
//    printIl(parseIl(printIl(P))) is a fixed point, and a parsed program
//    re-serializes to the same canonical bytes;
//  - the bytecode encoding (vm/BytecodeIO.h) round-trips against the
//    decoded IR;
//  - the `.cmmart` container (engine/ArtifactStore.h) rejects truncated,
//    bit-flipped, stale-version, and wrong-key files — corrupt cache
//    entries mean "recompile", never a misread artifact — and a
//    disk-loaded artifact runs byte-identically on all three backends.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "costmodel/RandomProgram.h"
#include "engine/ArtifactStore.h"
#include "engine/Engine.h"
#include "ir/IlText.h"
#include "ir/Serialize.h"
#include "opt/PassManager.h"
#include "support/ByteIO.h"
#include "vm/BytecodeIO.h"

#include <filesystem>
#include <fstream>

using namespace cmm;
using namespace cmm::test;
using cmm::engine::ArtifactStore;
using cmm::engine::Backend;
using cmm::engine::CacheKey;
using cmm::engine::CompileRequest;

namespace {

//===----------------------------------------------------------------------===//
// Corpus and helpers
//===----------------------------------------------------------------------===//

const char *FixedCorpus[] = {
    // Straight-line arithmetic.
    "export main;\n"
    "main(bits32 n) { return (n + 1); }\n",
    // Multiple procedures, recursion, multiple results.
    "export main;\n"
    "sp(bits32 n) {\n"
    "  bits32 s, p;\n"
    "  if n == 1 { return (1, 1); }\n"
    "  s, p = sp(n - 1);\n"
    "  return (s + n, p * n);\n"
    "}\n"
    "main(bits32 n) {\n"
    "  bits32 s, p;\n"
    "  s, p = sp(n);\n"
    "  return (s + p);\n"
    "}\n",
    // Floats, globals, string data, and memory at several widths.
    "export main;\n"
    "global bits32 g;\n"
    "data buf { bits32[8]; }\n"
    "data msg { bits8 \"serialize me\"; bits8 0; }\n"
    "main(bits32 n) {\n"
    "  bits32 s;\n"
    "  float64 f;\n"
    "  g = n;\n"
    "  s = \"Hi\";\n"
    "  f = %fadd(%i2f(g), 2.25);\n"
    "  bits8[buf] = bits8[msg + 1] + bits8[s];\n"
    "  bits64[buf + 8] = %zx64(%f2i(%fmul(f, 4.0)));\n"
    "  return (bits32[buf + 8] + g);\n"
    "}\n",
};

std::vector<uint8_t> serializeProgram(const IrProgram &P) {
  ByteWriter W;
  serializeIr(P, W);
  return W.take();
}

std::unique_ptr<IrProgram> deserializeProgram(const std::vector<uint8_t> &B,
                                              std::string *Err = nullptr) {
  ByteReader R(B.data(), B.size());
  return deserializeIr(R, Err);
}

/// Runs main(5) on the walker and returns (status, results, wrong reason).
struct RunOutcome {
  MachineStatus St;
  std::vector<Value> Results;
  std::string Wrong;
};

RunOutcome runMain(const IrProgram &P, Backend B = Backend::Walk) {
  auto E = engine::makeExecutor(B, P);
  E->start("main", {b32(5)});
  RunOutcome O;
  O.St = E->run(10'000'000);
  O.Results = E->argArea();
  O.Wrong = E->wrongReason();
  return O;
}

void expectSameOutcome(const RunOutcome &A, const RunOutcome &B) {
  EXPECT_EQ(A.St, B.St);
  EXPECT_TRUE(A.Results == B.Results);
  EXPECT_EQ(A.Wrong, B.Wrong);
}

/// One full binary + textual round-trip check over \p P.
void expectRoundTrips(const IrProgram &P) {
  // Binary: serialize ∘ deserialize ∘ serialize = serialize.
  std::vector<uint8_t> B1 = serializeProgram(P);
  std::string Err;
  std::unique_ptr<IrProgram> P2 = deserializeProgram(B1, &Err);
  ASSERT_TRUE(P2) << "deserialize failed: " << Err;
  std::vector<uint8_t> B2 = serializeProgram(*P2);
  EXPECT_EQ(B1, B2) << "binary round trip not byte-identical";

  // Textual: printIl ∘ parseIl ∘ printIl = printIl, and a parsed program
  // re-serializes to the same canonical bytes as the original.
  std::string T1 = printIl(P);
  std::unique_ptr<IrProgram> P3 = parseIl(T1, &Err);
  ASSERT_TRUE(P3) << "parseIl failed: " << Err << "\n" << T1;
  EXPECT_EQ(T1, printIl(*P3)) << "textual round trip not a fixed point";
  EXPECT_EQ(B1, serializeProgram(*P3))
      << "parsed program diverges from the binary canonical form";

  // Bytecode: encode ∘ decode ∘ encode = encode, against the decoded IR.
  CompiledProgram C = compileToBytecode(*P2);
  ByteWriter BW1;
  serializeBytecode(C, *P2, BW1);
  ByteReader BR(BW1.buffer().data(), BW1.size());
  std::unique_ptr<CompiledProgram> C2 = deserializeBytecode(BR, *P2, &Err);
  ASSERT_TRUE(C2) << "deserializeBytecode failed: " << Err;
  ByteWriter BW2;
  serializeBytecode(*C2, *P2, BW2);
  EXPECT_EQ(BW1.buffer(), BW2.buffer())
      << "bytecode round trip not byte-identical";
  // The dispatch keys are rebuilt at decode, not serialized.
  for (size_t I = 0; I < C.Procs.size(); ++I)
    EXPECT_EQ(C.Procs[I].Keys, C2->Procs[I].Keys);

  // The decoded program runs like the original.
  expectSameOutcome(runMain(P), runMain(*P2));
}

std::unique_ptr<IrProgram> compileOptimized(const std::string &Src) {
  std::unique_ptr<IrProgram> P = compile({Src});
  if (!P)
    return nullptr;
  OptOptions O;
  O.PlaceCalleeSaves = true;
  OptReport R = optimizeProgram(*P, O);
  EXPECT_TRUE(R.ValidationErrors.empty());
  return P;
}

//===----------------------------------------------------------------------===//
// IR and IL round trips
//===----------------------------------------------------------------------===//

TEST(SerializeIr, FixedCorpusRoundTrips) {
  for (const char *Src : FixedCorpus) {
    SCOPED_TRACE(Src);
    std::unique_ptr<IrProgram> P = compile({Src});
    ASSERT_TRUE(P);
    expectRoundTrips(*P);
  }
}

TEST(SerializeIr, OptimizedFixedCorpusRoundTrips) {
  // The optimizer rewrites expression trees (introducing sharing) and adds
  // callee-save/cut metadata; the encodings must carry all of it.
  for (const char *Src : FixedCorpus) {
    SCOPED_TRACE(Src);
    std::unique_ptr<IrProgram> P = compileOptimized(Src);
    ASSERT_TRUE(P);
    expectRoundTrips(*P);
  }
}

TEST(SerializeIr, RandomProgramsRoundTrip) {
  // Exception-heavy random programs across the dispatch design space, both
  // raw and optimized: the property-test half of the round-trip oracle.
  for (uint64_t Seed = 0; Seed < 12; ++Seed) {
    RandomProgramOptions RO;
    RO.Strategy = AllDispatchTechniques[Seed % 5];
    std::string Src = generateRandomProgram(Seed, RO);
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::unique_ptr<IrProgram> P = compile({Src});
    ASSERT_TRUE(P);
    expectRoundTrips(*P);
    std::unique_ptr<IrProgram> PO = compileOptimized(Src);
    ASSERT_TRUE(PO);
    expectRoundTrips(*PO);
  }
}

TEST(SerializeIr, TruncatedInputIsRejected) {
  std::unique_ptr<IrProgram> P = compile({FixedCorpus[1]});
  ASSERT_TRUE(P);
  std::vector<uint8_t> Blob = serializeProgram(*P);
  // Every truncation point must be rejected cleanly (no crash, null
  // result), including the empty prefix.
  for (size_t Len = 0; Len < Blob.size(); Len += 7) {
    std::vector<uint8_t> Cut(Blob.begin(), Blob.begin() + Len);
    EXPECT_EQ(deserializeProgram(Cut), nullptr) << "prefix length " << Len;
  }
}

TEST(SerializeIr, VersionMismatchIsRejected) {
  std::unique_ptr<IrProgram> P = compile({FixedCorpus[0]});
  ASSERT_TRUE(P);
  std::vector<uint8_t> Blob = serializeProgram(*P);
  Blob[0] += 1; // the leading u32 format version
  std::string Err;
  EXPECT_EQ(deserializeProgram(Blob, &Err), nullptr);
  EXPECT_NE(Err.find("version"), std::string::npos) << Err;
}

TEST(IlText, MalformedTextIsRejected) {
  const char *Bad[] = {
      "",
      "not-an-il-file\n",
      "cmmex-il v1\n", // stale version
      "cmmex-il v2\nproc main\nexpr 0 int 1 :bits32 @0.0\n", // no endproc
      "cmmex-il v2\nglobal g\n",                             // missing type
  };
  for (const char *Text : Bad) {
    SCOPED_TRACE(Text);
    std::string Err;
    EXPECT_EQ(parseIl(Text, &Err), nullptr);
    EXPECT_FALSE(Err.empty());
  }
}

//===----------------------------------------------------------------------===//
// The .cmmart container
//===----------------------------------------------------------------------===//

CompileRequest mainRequest(bool Optimize = false) {
  CompileRequest Req;
  Req.Sources = {FixedCorpus[1]};
  Req.Optimize = Optimize;
  if (Optimize)
    Req.Opt.PlaceCalleeSaves = true;
  return Req;
}

TEST(ArtifactContainer, RoundTripRunsIdenticallyOnAllBackends) {
  auto A = engine::compileArtifact(mainRequest(true));
  ASSERT_TRUE(A->ok());
  std::vector<uint8_t> Blob = ArtifactStore::serialize(*A);
  std::string Err;
  auto B = ArtifactStore::deserialize(Blob.data(), Blob.size(), &A->key(),
                                      &Err);
  ASSERT_TRUE(B) << Err;
  EXPECT_TRUE(B->ok());
  EXPECT_TRUE(B->key() == A->key());
  // The conformance gate: the disk-loaded artifact must be byte-identical
  // in behaviour to the freshly compiled one on every backend.
  for (Backend Bk : engine::AllBackends) {
    SCOPED_TRACE(std::string(engine::backendName(Bk)));
    auto EA = A->newExecutor(Bk);
    auto EB = B->newExecutor(Bk);
    EA->start("main", {b32(6)});
    EB->start("main", {b32(6)});
    EXPECT_EQ(EA->run(10'000'000), EB->run(10'000'000));
    EXPECT_TRUE(EA->argArea() == EB->argArea());
    EXPECT_EQ(EA->wrongReason(), EB->wrongReason());
  }
}

TEST(ArtifactContainer, CorruptTruncatedAndStaleBlobsAreRejected) {
  auto A = engine::compileArtifact(mainRequest());
  ASSERT_TRUE(A->ok());
  std::vector<uint8_t> Blob = ArtifactStore::serialize(*A);

  // Truncations.
  for (size_t Len = 0; Len < Blob.size(); Len += 13)
    EXPECT_EQ(ArtifactStore::deserialize(Blob.data(), Len, &A->key()),
              nullptr)
        << "prefix length " << Len;

  // Single-byte corruption anywhere must be caught (magic, header fields,
  // or the payload checksum).
  for (size_t I = 0; I < Blob.size(); I += 11) {
    std::vector<uint8_t> Bad = Blob;
    Bad[I] ^= 0x20;
    EXPECT_EQ(
        ArtifactStore::deserialize(Bad.data(), Bad.size(), &A->key()),
        nullptr)
        << "flipped byte " << I;
  }

  // A future container version is stale, even with a valid checksum.
  std::vector<uint8_t> Stale = Blob;
  Stale[17] += 1; // u32 version directly after the 17-byte magic
  EXPECT_EQ(ArtifactStore::deserialize(Stale.data(), Stale.size(), nullptr),
            nullptr);

  // Wrong expected key (a file renamed to another key's address).
  CacheKey Other = A->key();
  Other.Lo ^= 1;
  std::string Err;
  EXPECT_EQ(
      ArtifactStore::deserialize(Blob.data(), Blob.size(), &Other, &Err),
      nullptr);
  EXPECT_NE(Err.find("key"), std::string::npos) << Err;
}

TEST(ArtifactContainer, StoreWritesLoadsAndReportsCorruption) {
  ScratchDir Dir("store");
  auto A = engine::compileArtifact(mainRequest());
  ASSERT_TRUE(A->ok());
  std::string Err;
  ASSERT_TRUE(ArtifactStore::writeFile(Dir.str(), *A, &Err)) << Err;

  // Load back: same key, runnable program.
  auto B = ArtifactStore::loadFile(Dir.str(), A->key(), &Err);
  ASSERT_TRUE(B) << Err;
  expectSameOutcome(runMain(*A->program()), runMain(*B->program()));

  // A missing file is a quiet miss: null artifact, empty error.
  CacheKey Other = A->key();
  Other.Hi ^= 0xdead;
  Err.clear();
  EXPECT_EQ(ArtifactStore::loadFile(Dir.str(), Other, &Err), nullptr);
  EXPECT_TRUE(Err.empty()) << Err;

  // A corrupt file is a loud miss: null artifact, error set.
  std::string Path = ArtifactStore::filePath(Dir.str(), A->key());
  {
    std::ofstream F(Path, std::ios::binary | std::ios::trunc);
    F << "garbage";
  }
  Err.clear();
  EXPECT_EQ(ArtifactStore::loadFile(Dir.str(), A->key(), &Err), nullptr);
  EXPECT_FALSE(Err.empty());
}

} // namespace
