//===- support/BitVector.h - Dense bit vectors ------------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-size dense bit sets for dataflow solvers. The operations live on
/// views (ConstBitRow, BitRow) so one set of code serves both owners of
/// words: a standalone BitVector, which keeps up to 128 bits inline and
/// touches the heap only beyond that, and a BitMatrix, which stores the
/// per-node sets of a whole solve as rows of one word array.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SUPPORT_BITVECTOR_H
#define CMM_SUPPORT_BITVECTOR_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace cmm {

/// Read-only view of a fixed-size bit set stored elsewhere.
class ConstBitRow {
public:
  ConstBitRow(const uint64_t *Words, size_t NumBits)
      : Words(Words), NumBits(NumBits) {}

  size_t size() const { return NumBits; }
  size_t numWords() const { return (NumBits + 63) / 64; }
  const uint64_t *data() const { return Words; }

  bool test(size_t I) const {
    assert(I < NumBits && "bit index out of range");
    return (Words[I / 64] >> (I % 64)) & 1;
  }

  /// Calls \p F(index) for every set bit, in increasing order.
  template <typename Fn> void forEach(Fn F) const {
    for (size_t W = 0; W < numWords(); ++W) {
      uint64_t Bits = Words[W];
      while (Bits) {
        unsigned B = static_cast<unsigned>(__builtin_ctzll(Bits));
        F(W * 64 + B);
        Bits &= Bits - 1;
      }
    }
  }

  size_t count() const {
    size_t N = 0;
    for (size_t W = 0; W < numWords(); ++W)
      N += static_cast<size_t>(__builtin_popcountll(Words[W]));
    return N;
  }

  friend bool operator==(ConstBitRow X, ConstBitRow Y) {
    return X.NumBits == Y.NumBits &&
           std::equal(X.Words, X.Words + X.numWords(), Y.Words);
  }

protected:
  const uint64_t *Words;
  size_t NumBits;
};

/// Mutable view of a fixed-size bit set stored elsewhere. Copying the view
/// does not copy the bits.
class BitRow : public ConstBitRow {
public:
  BitRow(uint64_t *Words, size_t NumBits) : ConstBitRow(Words, NumBits) {}

  void set(size_t I) {
    assert(I < NumBits && "bit index out of range");
    words()[I / 64] |= uint64_t(1) << (I % 64);
  }
  void reset(size_t I) {
    assert(I < NumBits && "bit index out of range");
    words()[I / 64] &= ~(uint64_t(1) << (I % 64));
  }
  void clear() { std::fill(words(), words() + numWords(), 0); }

  /// this = Other.
  void assign(ConstBitRow Other) {
    assert(NumBits == Other.size() && "size mismatch");
    std::copy(Other.data(), Other.data() + numWords(), words());
  }

  /// this |= Other. Returns true when any bit changed.
  bool unionWith(ConstBitRow Other) {
    assert(NumBits == Other.size() && "size mismatch");
    uint64_t Changed = 0;
    for (size_t I = 0; I < numWords(); ++I) {
      uint64_t Old = words()[I];
      words()[I] = Old | Other.data()[I];
      Changed |= words()[I] ^ Old;
    }
    return Changed != 0;
  }

  /// this &= ~Other.
  void subtract(ConstBitRow Other) {
    assert(NumBits == Other.size() && "size mismatch");
    for (size_t I = 0; I < numWords(); ++I)
      words()[I] &= ~Other.data()[I];
  }

  /// this &= Other.
  void intersectWith(ConstBitRow Other) {
    assert(NumBits == Other.size() && "size mismatch");
    for (size_t I = 0; I < numWords(); ++I)
      words()[I] &= Other.data()[I];
  }

protected:
  /// A BitRow is only ever built over mutable words.
  uint64_t *words() const { return const_cast<uint64_t *>(Words); }
};

/// An owned dense bit set. Sets of up to InlineWords * 64 bits (every
/// procedure-sized location universe in practice) need no heap storage.
class BitVector : public BitRow {
public:
  static constexpr size_t InlineWords = 2;

  BitVector() : BitRow(Inline, 0) {}
  explicit BitVector(size_t Size) : BitRow(Inline, Size) {
    if (numWords() > InlineWords) {
      Heap.reset(new uint64_t[numWords()]());
      Words = Heap.get();
    }
  }
  BitVector(ConstBitRow Bits) : BitVector(Bits.size()) { assign(Bits); }
  BitVector(const BitVector &Other) : BitVector(Other.size()) {
    assign(Other);
  }
  BitVector(BitVector &&Other) noexcept : BitRow(Inline, 0) {
    *this = std::move(Other);
  }
  BitVector &operator=(const BitVector &Other) {
    if (this != &Other)
      *this = BitVector(Other);
    return *this;
  }
  BitVector &operator=(BitVector &&Other) noexcept {
    if (this == &Other)
      return *this;
    NumBits = Other.NumBits;
    Heap = std::move(Other.Heap);
    if (Heap) {
      Words = Heap.get();
    } else {
      std::copy(Other.Inline, Other.Inline + InlineWords, Inline);
      Words = Inline;
    }
    Other.NumBits = 0;
    Other.Words = Other.Inline;
    return *this;
  }

private:
  uint64_t Inline[InlineWords] = {};
  std::unique_ptr<uint64_t[]> Heap;
};

/// Equal-size bit sets stored as the rows of one word array: the per-node
/// sets of one dataflow solve, in a single allocation that reset() reuses.
class BitMatrix {
public:
  /// Makes this \p Rows empty rows of \p Bits bits each.
  void reset(size_t Rows, size_t Bits) {
    NumRows = Rows;
    RowBits = Bits;
    RowWords = (Bits + 63) / 64;
    Words.assign(Rows * RowWords, 0);
  }

  size_t rows() const { return NumRows; }
  BitRow operator[](size_t R) {
    assert(R < NumRows && "row out of range");
    return BitRow(Words.data() + R * RowWords, RowBits);
  }
  ConstBitRow operator[](size_t R) const {
    assert(R < NumRows && "row out of range");
    return ConstBitRow(Words.data() + R * RowWords, RowBits);
  }

private:
  std::vector<uint64_t> Words;
  size_t NumRows = 0, RowBits = 0, RowWords = 0;
};

} // namespace cmm

#endif // CMM_SUPPORT_BITVECTOR_H
