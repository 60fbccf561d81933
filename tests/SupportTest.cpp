//===- tests/SupportTest.cpp - Support and cost-model units ---------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "costmodel/CallSiteModel.h"
#include "costmodel/SetjmpModel.h"
#include "sem/Env.h"
#include "sem/Memory.h"
#include "support/BitVector.h"
#include "support/Bits.h"
#include "support/Interner.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace cmm;

namespace {

//===----------------------------------------------------------------------===//
// Bits
//===----------------------------------------------------------------------===//

TEST(Bits, TruncateAndSignExtend) {
  EXPECT_EQ(truncateToWidth(0x1FF, 8), 0xFFu);
  EXPECT_EQ(truncateToWidth(0xFFFFFFFFFFFFFFFFULL, 64),
            0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(truncateToWidth(0x100, 8), 0u);
  EXPECT_EQ(signExtend(0xFF, 8), -1);
  EXPECT_EQ(signExtend(0x7F, 8), 127);
  EXPECT_EQ(signExtend(0x80, 8), -128);
  EXPECT_EQ(signExtend(0xFFFFFFFF, 32), -1);
  EXPECT_EQ(signExtend(5, 32), 5);
  EXPECT_EQ(signedMin(32), 0x80000000u);
  EXPECT_TRUE(isZeroAtWidth(0x100, 8));
  EXPECT_FALSE(isZeroAtWidth(0x1, 8));
}

//===----------------------------------------------------------------------===//
// BitVector
//===----------------------------------------------------------------------===//

TEST(BitVector, SetResetUnionSubtract) {
  BitVector A(130), B(130);
  A.set(0);
  A.set(64);
  A.set(129);
  EXPECT_TRUE(A.test(64));
  EXPECT_FALSE(A.test(63));
  EXPECT_EQ(A.count(), 3u);

  B.set(64);
  B.set(100);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_FALSE(A.unionWith(B)); // no change the second time
  EXPECT_EQ(A.count(), 4u);

  A.subtract(B);
  EXPECT_EQ(A.count(), 2u);
  EXPECT_TRUE(A.test(0));
  EXPECT_TRUE(A.test(129));
  EXPECT_FALSE(A.test(64));

  std::vector<size_t> Seen;
  A.forEach([&](size_t I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, (std::vector<size_t>{0, 129}));

  A.intersectWith(B);
  EXPECT_EQ(A.count(), 0u);
}

//===----------------------------------------------------------------------===//
// Interner
//===----------------------------------------------------------------------===//

TEST(Interner, StableIdentitiesAcrossGrowth) {
  Interner I;
  std::vector<Symbol> Syms;
  for (int K = 0; K < 1000; ++K)
    Syms.push_back(I.intern("name" + std::to_string(K)));
  for (int K = 0; K < 1000; ++K) {
    EXPECT_EQ(I.intern("name" + std::to_string(K)), Syms[K]);
    EXPECT_EQ(I.spelling(Syms[K]), "name" + std::to_string(K));
  }
  EXPECT_EQ(I.lookup("name42"), Syms[42]);
  EXPECT_FALSE(I.lookup("never-interned").isValid());
  EXPECT_EQ(I.size(), 1000u);
}

TEST(Interner, SpellingViewsSurviveGrowthAndIdsFollowFirstUse) {
  Interner I;
  // One-byte names take their own path; ids still follow first use.
  Symbol A = I.intern("a"), Ab = I.intern("ab"), B = I.intern("b");
  EXPECT_EQ(A.Id + 1, Ab.Id);
  EXPECT_EQ(Ab.Id + 1, B.Id);
  EXPECT_EQ(I.lookup("a"), A);
  EXPECT_FALSE(I.lookup("c").isValid());
  std::string_view Early = I.spelling(Ab);
  std::string Long(5000, 'x'); // larger than one spelling block
  Symbol L = I.intern(Long);
  for (int K = 0; K < 2000; ++K)
    I.intern("n" + std::to_string(K));
  EXPECT_EQ(Early, "ab");
  EXPECT_EQ(I.spelling(L), Long);
  EXPECT_EQ(I.spelling(A), "a");
}

//===----------------------------------------------------------------------===//
// Env
//===----------------------------------------------------------------------===//

TEST(Env, BindLookupErase) {
  Interner I;
  Symbol X = I.intern("x"), Y = I.intern("y"), Z = I.intern("z");
  Env E;
  EXPECT_EQ(E.lookup(X), nullptr);
  E.bind(X, Value::bits(32, 1));
  E.bind(Y, Value::bits(32, 2));
  E.bind(X, Value::bits(32, 3)); // rebind
  ASSERT_NE(E.lookup(X), nullptr);
  EXPECT_EQ(E.lookup(X)->Raw, 3u);
  EXPECT_EQ(E.size(), 2u);

  // ρ \ {x, z}: erasing an unbound variable is a no-op.
  E.erase({X, Z});
  EXPECT_EQ(E.lookup(X), nullptr);
  ASSERT_NE(E.lookup(Y), nullptr);
  EXPECT_EQ(E.lookup(Y)->Raw, 2u);
}

//===----------------------------------------------------------------------===//
// Memory
//===----------------------------------------------------------------------===//

TEST(MemoryUnit, ZeroFillAndPageBoundaries) {
  Memory M;
  EXPECT_EQ(M.loadBits(0x12345, 4), 0u); // untouched memory reads zero
  // A store straddling a 4 KiB page boundary.
  M.storeBits(4094, 4, 0xAABBCCDD);
  EXPECT_EQ(M.loadBits(4094, 4), 0xAABBCCDDu);
  EXPECT_EQ(M.loadByte(4094), 0xDDu); // little-endian
  EXPECT_EQ(M.loadByte(4097), 0xAAu);
  EXPECT_GE(M.pageCount(), 2u);
}

TEST(MemoryUnit, FloatRoundTrip) {
  Memory M;
  M.storeFloat(64, 8, 3.14159);
  EXPECT_DOUBLE_EQ(M.loadFloat(64, 8), 3.14159);
  M.storeFloat(128, 4, 2.5);
  EXPECT_FLOAT_EQ(static_cast<float>(M.loadFloat(128, 4)), 2.5f);
}

//===----------------------------------------------------------------------===//
// Values
//===----------------------------------------------------------------------===//

TEST(ValueUnit, EncodingsRoundTrip) {
  Value C = Value::code(3);
  EXPECT_TRUE(C.isCode());
  EXPECT_TRUE(Value::rawIsCode(C.Raw));
  EXPECT_EQ(C.codeIndex(), 3u);

  Value K = Value::cont(17);
  EXPECT_TRUE(K.isCont());
  EXPECT_TRUE(Value::rawIsCont(K.Raw));
  EXPECT_EQ(K.contHandle(), 17u);

  // Data addresses are neither code nor continuations.
  EXPECT_FALSE(Value::rawIsCode(0x10000000)); // the data segment base
  EXPECT_FALSE(Value::rawIsCont(0x10000000));

  Value B = Value::bits(16, 0x12345);
  EXPECT_EQ(B.Raw, 0x2345u); // truncated at construction
  EXPECT_TRUE(Value::bits(32, 7) == Value::bits(32, 7));
  EXPECT_FALSE(Value::bits(32, 7) == Value::bits(16, 7));
}

//===----------------------------------------------------------------------===//
// Cost models
//===----------------------------------------------------------------------===//

TEST(CallSiteModelUnit, PaperClaims) {
  // Figure 3: two words, nothing extra.
  CallSiteCost Std = callSiteCost(ReturnScheme::Standard, 0);
  EXPECT_EQ(Std.Words, 2u);
  EXPECT_EQ(Std.NormalReturnExtra, 0u);

  // Figure 4: "no dynamic overhead in the normal case"; one extra word per
  // alternate continuation; abnormal = branch to a branch (one extra).
  CallSiteCost Bt = callSiteCost(ReturnScheme::BranchTable, 2, 1);
  EXPECT_EQ(Bt.Words, 4u);
  EXPECT_EQ(Bt.NormalReturnExtra, 0u);
  EXPECT_EQ(Bt.AbnormalReturnExtra, 1u);

  // The rejected alternative "would add an overhead at every call".
  CallSiteCost Tb = callSiteCost(ReturnScheme::TestAndBranch, 2, 1);
  EXPECT_GT(Tb.NormalReturnExtra, 0u);
  EXPECT_GT(Tb.AbnormalReturnExtra, Bt.AbnormalReturnExtra);

  ProgramCallCost P =
      programCallCost(ReturnScheme::BranchTable, 100, 2, 1000, 10);
  EXPECT_EQ(P.SpaceWords, 400u);
  EXPECT_EQ(P.ExtraInstructions, 10u); // only the abnormal returns pay
}

TEST(SetjmpModelUnit, PaperNumbers) {
  EXPECT_EQ(SetjmpProfiles[0].JmpBufPointers, 6u);   // Pentium/Linux
  EXPECT_EQ(SetjmpProfiles[1].JmpBufPointers, 19u);  // Sparc/Solaris
  EXPECT_EQ(SetjmpProfiles[2].JmpBufPointers, 84u);  // Alpha/Digital-Unix
  for (const SetjmpProfile &P : SetjmpProfiles) {
    EXPECT_EQ(P.NativeCutterPointers, 2u);
    NonLocalExitCost C = nonLocalExitCost(P, 100, 10);
    // setjmp always saves at least 3x the state of the native cutter.
    EXPECT_GE(C.SetjmpWordsSaved, 3 * C.CutterWordsSaved);
  }
  // Only the SPARC flushes register windows.
  EXPECT_TRUE(SetjmpProfiles[1].FlushesRegisterWindows);
  EXPECT_FALSE(SetjmpProfiles[0].FlushesRegisterWindows);
}

//===----------------------------------------------------------------------===//
// Rng determinism
//===----------------------------------------------------------------------===//

TEST(RngUnit, DeterministicAndBounded) {
  Rng A(42), B(42), C(43);
  bool AllEqual = true, AnyDiffSeed = false;
  for (int I = 0; I < 100; ++I) {
    uint64_t X = A.next(), Y = B.next(), Z = C.next();
    AllEqual &= X == Y;
    AnyDiffSeed |= X != Z;
  }
  EXPECT_TRUE(AllEqual);
  EXPECT_TRUE(AnyDiffSeed);
  Rng D(7);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(D.below(10), 10u);
    int64_t R = D.range(-5, 5);
    EXPECT_GE(R, -5);
    EXPECT_LE(R, 5);
  }
}

} // namespace
