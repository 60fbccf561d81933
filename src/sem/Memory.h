//===- sem/Memory.h - Byte-addressed memory ---------------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory M of the abstract machine: sparse, byte-addressed,
/// little-endian (the "native byte order of the target machine",
/// Section 5.1). Reads of never-written bytes yield zero.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SEM_MEMORY_H
#define CMM_SEM_MEMORY_H

#include "sem/Value.h"

#include <array>
#include <bit>
#include <cstring>
#include <unordered_map>

namespace cmm {

/// Sparse paged memory. A one-entry page cache makes the repeated
/// same-page accesses of real programs a pointer compare instead of a hash
/// lookup; the cache is pure optimization state (unordered_map node
/// addresses are stable, and it is dropped on copy and move).
///
/// NOT thread-safe, not even for concurrent reads: the `mutable` page
/// cache means every const load may write CachedIdx/CachedPage, so two
/// threads reading one Memory race on those fields (a torn pair can make
/// findPage return the wrong page's bytes, not just a stale pointer).
/// This is deliberate — one Memory belongs to one executor, one executor
/// is one C-- thread, and the batch engine (engine/Engine.h) preserves
/// the invariant by giving every job a private executor. Audited for the
/// engine's thread pool: nothing shared across jobs reaches a Memory, so
/// the cache needs no locks and stays a plain pointer compare on the
/// machine's hottest path.
class Memory {
public:
  /// Allocation granularity: pageCount() * PageSize is the footprint the
  /// memory quota (ResumeBudget, sem/Continuation.h) charges a job for.
  static constexpr uint64_t PageSize = 4096;

  Memory() = default;
  Memory(const Memory &O) : Pages(O.Pages) {}
  Memory(Memory &&O) noexcept : Pages(std::move(O.Pages)) {}
  Memory &operator=(const Memory &O) {
    Pages = O.Pages;
    dropCache();
    return *this;
  }
  Memory &operator=(Memory &&O) noexcept {
    Pages = std::move(O.Pages);
    dropCache();
    return *this;
  }

  uint8_t loadByte(uint64_t Addr) const {
    const std::array<uint8_t, PageSize> *P = findPage(Addr / PageSize);
    return P ? (*P)[Addr % PageSize] : 0;
  }

  void storeByte(uint64_t Addr, uint8_t V) {
    page(Addr)[Addr % PageSize] = V;
  }

  /// loadtype(M, addr) for bits values: little-endian.
  uint64_t loadBits(uint64_t Addr, unsigned Bytes) const {
    uint64_t Off = Addr % PageSize;
    if (Off + Bytes <= PageSize) { // one page: a single lookup
      const std::array<uint8_t, PageSize> *P = findPage(Addr / PageSize);
      if (!P)
        return 0; // never-written bytes read as zero
      // Little-endian hosts can read a value in one fixed-size memcpy
      // (the byte loop IS little-endian assembly — it compiles to a plain
      // load); others assemble explicitly. Widths are 8/16/32/64 bits.
      if constexpr (std::endian::native == std::endian::little) {
        const uint8_t *Src = P->data() + Off;
        switch (Bytes) {
        case 1:
          return *Src;
        case 2: {
          uint16_t V;
          std::memcpy(&V, Src, 2);
          return V;
        }
        case 4: {
          uint32_t V;
          std::memcpy(&V, Src, 4);
          return V;
        }
        case 8: {
          uint64_t V;
          std::memcpy(&V, Src, 8);
          return V;
        }
        default:
          break; // fall through to the byte loop
        }
      }
      uint64_t V = 0;
      for (unsigned I = 0; I < Bytes; ++I)
        V |= uint64_t((*P)[Off + I]) << (8 * I);
      return V;
    }
    uint64_t V = 0;
    for (unsigned I = 0; I < Bytes; ++I)
      V |= uint64_t(loadByte(Addr + I)) << (8 * I);
    return V;
  }

  /// storetype(M, addr, v) for bits values.
  void storeBits(uint64_t Addr, unsigned Bytes, uint64_t V) {
    uint64_t Off = Addr % PageSize;
    if (Off + Bytes <= PageSize) { // one page: a single lookup
      std::array<uint8_t, PageSize> &P = page(Addr);
      if constexpr (std::endian::native == std::endian::little) {
        uint8_t *Dst = P.data() + Off;
        switch (Bytes) {
        case 1:
          *Dst = static_cast<uint8_t>(V);
          return;
        case 2: {
          uint16_t T = static_cast<uint16_t>(V);
          std::memcpy(Dst, &T, 2);
          return;
        }
        case 4: {
          uint32_t T = static_cast<uint32_t>(V);
          std::memcpy(Dst, &T, 4);
          return;
        }
        case 8:
          std::memcpy(Dst, &V, 8);
          return;
        default:
          break; // fall through to the byte loop
        }
      }
      for (unsigned I = 0; I < Bytes; ++I)
        P[Off + I] = static_cast<uint8_t>(V >> (8 * I));
      return;
    }
    for (unsigned I = 0; I < Bytes; ++I)
      storeByte(Addr + I, static_cast<uint8_t>(V >> (8 * I)));
  }

  /// Bulk byte store: the data-segment image loader's path. Equivalent to
  /// storeByte over [Addr, Addr+N), but copies page-sized chunks, and skips
  /// the zero-fill of a freshly created page the chunk fully overwrites —
  /// per-machine-start image installation is a few memcpys, not a per-byte
  /// hash-cache probe (it dominated the short-workload benchmarks).
  void storeBytes(uint64_t Addr, const uint8_t *Src, size_t N) {
    while (N > 0) {
      uint64_t Idx = Addr / PageSize, Off = Addr % PageSize;
      size_t Chunk = std::min<uint64_t>(N, PageSize - Off);
      auto [It, Fresh] = Pages.try_emplace(Idx);
      if (Fresh && Chunk != PageSize)
        It->second.fill(0);
      std::memcpy(It->second.data() + Off, Src, Chunk);
      CachedIdx = Idx;
      CachedPage = &It->second;
      Addr += Chunk;
      Src += Chunk;
      N -= Chunk;
    }
  }

  double loadFloat(uint64_t Addr, unsigned Bytes) const {
    if (Bytes == 4) {
      uint32_t Raw = static_cast<uint32_t>(loadBits(Addr, 4));
      float F;
      std::memcpy(&F, &Raw, 4);
      return F;
    }
    uint64_t Raw = loadBits(Addr, 8);
    double D;
    std::memcpy(&D, &Raw, 8);
    return D;
  }

  void storeFloat(uint64_t Addr, unsigned Bytes, double V) {
    if (Bytes == 4) {
      float F = static_cast<float>(V);
      uint32_t Raw;
      std::memcpy(&Raw, &F, 4);
      storeBits(Addr, 4, Raw);
      return;
    }
    uint64_t Raw;
    std::memcpy(&Raw, &V, 8);
    storeBits(Addr, 8, Raw);
  }

  size_t pageCount() const { return Pages.size(); }

private:
  static constexpr uint64_t NoPage = ~uint64_t(0);

  void dropCache() const {
    CachedIdx = NoPage;
    CachedPage = nullptr;
  }

  /// The page holding \p Idx, or null when it was never written. Fills the
  /// cache; node addresses survive rehashing, so a hit stays valid until
  /// the map itself is replaced. The cache hit is the only inlined path:
  /// real programs hammer one page, and keeping the hash probe out of line
  /// leaves the dispatch loops' load/store handlers a compare and a branch.
  std::array<uint8_t, PageSize> *findPage(uint64_t Idx) const {
    if (Idx == CachedIdx) [[likely]]
      return CachedPage;
    return findPageSlow(Idx);
  }

  std::array<uint8_t, PageSize> &page(uint64_t Addr) {
    uint64_t Idx = Addr / PageSize;
    if (Idx == CachedIdx) [[likely]]
      return *CachedPage;
    return pageSlow(Idx);
  }

#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  std::array<uint8_t, PageSize> *findPageSlow(uint64_t Idx) const {
    auto It = Pages.find(Idx);
    if (It == Pages.end())
      return nullptr;
    CachedIdx = Idx;
    CachedPage = const_cast<std::array<uint8_t, PageSize> *>(&It->second);
    return CachedPage;
  }

#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  std::array<uint8_t, PageSize> &pageSlow(uint64_t Idx) {
    auto [It, Fresh] = Pages.try_emplace(Idx);
    if (Fresh)
      It->second.fill(0);
    CachedIdx = Idx;
    CachedPage = &It->second;
    return It->second;
  }

  std::unordered_map<uint64_t, std::array<uint8_t, PageSize>> Pages;
  mutable uint64_t CachedIdx = NoPage;
  mutable std::array<uint8_t, PageSize> *CachedPage = nullptr;
};

} // namespace cmm

#endif // CMM_SEM_MEMORY_H
