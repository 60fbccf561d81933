//===- support/Interner.h - String interning --------------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interned identifiers. Symbols are small integer handles into a per-module
/// string table, so name comparisons during translation and interpretation
/// are integer compares. The table is open-addressed and the spellings sit
/// in a few large blocks, so interning a new name allocates nothing most of
/// the time.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SUPPORT_INTERNER_H
#define CMM_SUPPORT_INTERNER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

namespace cmm {

/// An interned identifier. Value 0 is the invalid symbol.
struct Symbol {
  uint32_t Id = 0;

  constexpr Symbol() = default;
  constexpr explicit Symbol(uint32_t Id) : Id(Id) {}

  bool isValid() const { return Id != 0; }
  explicit operator bool() const { return isValid(); }

  friend bool operator==(Symbol A, Symbol B) { return A.Id == B.Id; }
  friend bool operator!=(Symbol A, Symbol B) { return A.Id != B.Id; }
  friend bool operator<(Symbol A, Symbol B) { return A.Id < B.Id; }
};

/// Owns the interned strings and hands out Symbols.
class Interner {
public:
  Interner();
  Interner(const Interner &) = delete;
  Interner &operator=(const Interner &) = delete;

  /// Returns the symbol for \p Text, interning it on first use.
  Symbol intern(std::string_view Text);

  /// Returns the symbol for \p Text if already interned, else the invalid
  /// symbol. Never allocates.
  Symbol lookup(std::string_view Text) const;

  /// The spelling of \p S, valid as long as the interner. \p S must be
  /// valid and from this interner.
  std::string_view spelling(Symbol S) const;

  size_t size() const { return Entries.size() - 1; }

private:
  struct Entry {
    const char *Chars;
    uint32_t Len;
    uint32_t Hash;
  };
  /// Index of the slot holding \p Text's id, or of the empty slot where it
  /// belongs.
  size_t slotFor(std::string_view Text, uint32_t Hash) const;
  void growTable();
  const char *store(std::string_view Text);

  /// Entries[Id]; entry 0 is the invalid symbol.
  std::vector<Entry> Entries;
  /// Open-addressed, linear probing, power-of-two size; 0 = empty.
  std::vector<uint32_t> Slots;
  /// Spelling storage: blocks never move, so spellings never dangle.
  std::vector<std::unique_ptr<char[]>> Blocks;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t NextBlock = 0;
};

} // namespace cmm

/// Hashing so Symbol works as a key in unordered containers.
template <> struct std::hash<cmm::Symbol> {
  size_t operator()(cmm::Symbol S) const noexcept {
    return std::hash<uint32_t>()(S.Id);
  }
};

#endif // CMM_SUPPORT_INTERNER_H
