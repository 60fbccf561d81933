//===- support/Interner.cpp -----------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "support/Interner.h"

#include "support/Assert.h"

#include <algorithm>
#include <cstring>

using namespace cmm;

namespace {

/// Sized for a small program: a cached program pins its interner, so these
/// start small and grow (the table doubles, spelling blocks double up to
/// MaxBlockBytes).
constexpr size_t InitialSymbols = 32;
constexpr size_t FirstBlockBytes = 256, MaxBlockBytes = 8192;

uint32_t hashText(std::string_view Text) {
  uint32_t H = 2166136261u; // FNV-1a
  for (char C : Text) {
    H ^= static_cast<unsigned char>(C);
    H *= 16777619u;
  }
  return H;
}

} // namespace

Interner::Interner() {
  Entries.reserve(InitialSymbols);
  Entries.push_back({"", 0, 0}); // slot 0 = invalid
  Slots.assign(2 * InitialSymbols, 0);
}

size_t Interner::slotFor(std::string_view Text, uint32_t Hash) const {
  size_t Mask = Slots.size() - 1;
  for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
    uint32_t Id = Slots[I];
    if (!Id)
      return I;
    const Entry &E = Entries[Id];
    if (E.Hash == Hash && E.Len == Text.size() &&
        std::memcmp(E.Chars, Text.data(), Text.size()) == 0)
      return I;
  }
}

void Interner::growTable() {
  std::vector<uint32_t> Old(Slots.size() * 2, 0);
  Old.swap(Slots);
  size_t Mask = Slots.size() - 1;
  for (uint32_t Id : Old) {
    if (!Id)
      continue;
    size_t I = Entries[Id].Hash & Mask;
    while (Slots[I])
      I = (I + 1) & Mask;
    Slots[I] = Id;
  }
}

const char *Interner::store(std::string_view Text) {
  if (size_t(End - Cur) < Text.size()) {
    NextBlock = NextBlock ? std::min(2 * NextBlock, MaxBlockBytes)
                          : FirstBlockBytes;
    size_t Size = std::max(Text.size(), NextBlock);
    Blocks.push_back(std::make_unique_for_overwrite<char[]>(Size));
    Cur = Blocks.back().get();
    End = Cur + Size;
  }
  char *Chars = Cur;
  if (!Text.empty())
    std::memcpy(Chars, Text.data(), Text.size());
  Cur += Text.size();
  return Chars;
}

Symbol Interner::intern(std::string_view Text) {
  uint32_t Hash = hashText(Text);
  size_t Slot = slotFor(Text, Hash);
  if (Slots[Slot])
    return Symbol(Slots[Slot]);
  auto Id = static_cast<uint32_t>(Entries.size());
  Entries.push_back({store(Text), static_cast<uint32_t>(Text.size()), Hash});
  Slots[Slot] = Id;
  // Keep the load factor at or below one half.
  if (2 * Entries.size() > Slots.size())
    growTable();
  return Symbol(Id);
}

Symbol Interner::lookup(std::string_view Text) const {
  return Symbol(Slots[slotFor(Text, hashText(Text))]);
}

std::string_view Interner::spelling(Symbol S) const {
  assert(S.isValid() && S.Id < Entries.size() && "invalid symbol");
  const Entry &E = Entries[S.Id];
  return {E.Chars, E.Len};
}
