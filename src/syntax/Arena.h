//===- syntax/Arena.h - Bump allocation for syntax trees --------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one owner of every expression, statement and graph node. A Module's
/// arena holds its parsed tree; an IrProc's arena holds its graph nodes and
/// the expressions the optimizer, the deserializer and the IL text parser
/// create. Nodes are trivially destructible and their child lists are spans
/// into the same arena, so freeing the arena is freeing the tree: one `free`
/// per chunk, no destructor walk.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SYNTAX_ARENA_H
#define CMM_SYNTAX_ARENA_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>

namespace cmm {

class AstArena {
public:
  /// \p ExpectedBytes sizes the first chunk; the parser derives it from the
  /// source length so a typical module fits in one chunk. Later chunks
  /// start at an eighth of it and double, so a wrong guess wastes little.
  /// Without a guess, chunks start at MinChunk and double.
  explicit AstArena(size_t ExpectedBytes = 0) : NextChunk(ExpectedBytes) {}
  AstArena(AstArena &&O) noexcept { *this = std::move(O); }
  AstArena &operator=(AstArena &&O) noexcept {
    if (this != &O) {
      release();
      Head = std::exchange(O.Head, nullptr);
      Cur = std::exchange(O.Cur, nullptr);
      End = std::exchange(O.End, nullptr);
      NextChunk = O.NextChunk;
      Used = std::exchange(O.Used, 0);
    }
    return *this;
  }
  AstArena(const AstArena &) = delete;
  AstArena &operator=(const AstArena &) = delete;
  ~AstArena() { release(); }

  void *allocate(size_t Size, size_t Align) {
    uintptr_t P = (reinterpret_cast<uintptr_t>(Cur) + Align - 1) & ~(Align - 1);
    if (!Cur || P + Size > reinterpret_cast<uintptr_t>(End)) {
      grow(Size + Align);
      P = (reinterpret_cast<uintptr_t>(Cur) + Align - 1) & ~(Align - 1);
    }
    Cur = reinterpret_cast<char *>(P + Size);
    return reinterpret_cast<void *>(P);
  }

  /// Creates a \p T in the arena. Nothing ever runs its destructor.
  template <typename T, typename... Args> T *make(Args &&...A) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed");
    return new (allocate(sizeof(T), alignof(T))) T(std::forward<Args>(A)...);
  }

  /// An uninitialized array of \p N trivially destructible \p T.
  template <typename T> T *allocArray(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed");
    return N ? static_cast<T *>(allocate(N * sizeof(T), alignof(T))) : nullptr;
  }

  /// Copies \p Items into the arena.
  template <typename T> std::span<T> copy(std::span<const T> Items) {
    T *Data = allocArray<T>(Items.size());
    if (!Items.empty())
      std::memcpy(static_cast<void *>(Data), Items.data(),
                  Items.size() * sizeof(T));
    return {Data, Items.size()};
  }

  std::string_view copy(std::string_view S) {
    char *Data = allocArray<char>(S.size());
    if (!S.empty())
      std::memcpy(Data, S.data(), S.size());
    return {Data, S.size()};
  }

  /// Bytes handed out so far (alignment padding included).
  size_t bytesUsed() const { return Used + size_t(Cur - chunkBegin()); }

private:
  struct Chunk {
    Chunk *Prev;
    size_t Size;
  };
  static constexpr size_t MinChunk = 256;

  char *chunkBegin() const {
    return Head ? reinterpret_cast<char *>(Head + 1) : nullptr;
  }
  void grow(size_t AtLeast) {
    if (Head)
      Used += size_t(Cur - chunkBegin());
    size_t Size = NextChunk < MinChunk ? MinChunk : NextChunk;
    if (Size < AtLeast)
      Size = AtLeast;
    auto *C = static_cast<Chunk *>(::operator new(sizeof(Chunk) + Size));
    C->Prev = Head;
    C->Size = Size;
    Cur = reinterpret_cast<char *>(C + 1);
    End = Cur + Size;
    NextChunk = C->Prev ? Size * 2 : Size / 8;
    Head = C;
  }
  void release() {
    while (Head) {
      Chunk *Prev = Head->Prev;
      ::operator delete(Head);
      Head = Prev;
    }
    Cur = End = nullptr;
  }

  Chunk *Head = nullptr;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t NextChunk = 0;
  size_t Used = 0;
};

/// Builds a list of unknown length directly in an arena, doubling its block
/// as it grows (the abandoned blocks stay in the arena, bounded by the
/// final size). finish() returns the list; the builder is then spent.
template <typename T> class ArenaListBuilder {
public:
  explicit ArenaListBuilder(AstArena &A) : A(A) {}

  void push_back(const T &V) {
    if (Size == Cap) {
      size_t NewCap = Cap ? Cap * 2 : 4;
      T *New = A.allocArray<T>(NewCap);
      if (Size)
        std::memcpy(static_cast<void *>(New), Data, Size * sizeof(T));
      Data = New;
      Cap = NewCap;
    }
    Data[Size++] = V;
  }
  size_t size() const { return Size; }
  std::span<T> finish() const { return {Data, Size}; }

private:
  AstArena &A;
  T *Data = nullptr;
  size_t Size = 0, Cap = 0;
};

} // namespace cmm

#endif // CMM_SYNTAX_ARENA_H
