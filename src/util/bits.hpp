// DynBits: a dynamically sized bitset over 64-bit words.
//
// This is the workhorse of the cube/cover representation (logic/) and of
// the truth tables behind ISOP and approximate mapping. Word-level access is
// part of the public API: words() and mutableWords() are std::span views of
// exactly ceil(size() / 64) words, bit i in word i / 64 at position i % 64,
// with the bits past size() always clear, so that hot loops (cube
// containment, truth-table cofactors) can run at memory speed.
//
// Storage: up to kInlineWords words (128 bits) live inside the object — a
// cube's input part up to 64 variables, its outputs up to 128, a truth table
// up to 7 inputs — so copying, intersecting and returning such a bitset never
// calls the allocator. A wider bitset spills to one heap block of exactly its
// words. A bitset never changes size(), and size() alone decides where its
// words live.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace mcx {

class DynBits {
public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;
  /// Words kept inside the object; a wider bitset owns one heap block.
  static constexpr std::size_t kInlineWords = 2;

  /// Number of words holding @p n bits.
  static constexpr std::size_t wordsFor(std::size_t n) {
    return (n + kWordBits - 1) / kWordBits;
  }

  DynBits() = default;
  /// Construct @p n bits, all initialized to @p value.
  explicit DynBits(std::size_t n, bool value = false);
  DynBits(const DynBits& o);
  /// Leaves @p o empty when its words were on the heap, unchanged otherwise.
  DynBits(DynBits&& o) noexcept;
  DynBits& operator=(const DynBits& o);
  DynBits& operator=(DynBits&& o) noexcept;
  ~DynBits() { release(); }

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  bool test(std::size_t i) const;
  void set(std::size_t i);
  void set(std::size_t i, bool value);
  void reset(std::size_t i);
  void flip(std::size_t i);

  void setAll();
  void resetAll();

  /// Number of set bits.
  std::size_t count() const;
  bool any() const;
  bool none() const { return !any(); }
  /// True iff every bit is set.
  bool all() const;

  /// Index of the lowest set bit, or size() if none.
  std::size_t findFirst() const;
  /// Index of the lowest set bit at or after @p from, or size() if none.
  std::size_t findNext(std::size_t from) const;

  DynBits& operator&=(const DynBits& o);
  DynBits& operator|=(const DynBits& o);
  DynBits& operator^=(const DynBits& o);
  /// this &= ~o
  DynBits& andNot(const DynBits& o);

  friend DynBits operator&(DynBits a, const DynBits& b) { return a &= b; }
  friend DynBits operator|(DynBits a, const DynBits& b) { return a |= b; }
  friend DynBits operator^(DynBits a, const DynBits& b) { return a ^= b; }

  /// Bitwise complement within size().
  DynBits operator~() const;

  bool operator==(const DynBits& o) const;
  bool operator!=(const DynBits& o) const { return !(*this == o); }

  /// True iff every set bit of *this is also set in @p o.
  bool subsetOf(const DynBits& o) const;
  /// True iff (*this & o) has at least one set bit.
  bool intersects(const DynBits& o) const;

  /// Call @p fn(index) for every set bit, in increasing order.
  template <typename Fn>
  void forEachSet(Fn&& fn) const {
    const std::span<const Word> ws = words();
    for (std::size_t wi = 0; wi < ws.size(); ++wi) {
      Word w = ws[wi];
      while (w != 0) {
        const unsigned b = static_cast<unsigned>(__builtin_ctzll(w));
        fn(wi * kWordBits + b);
        w &= w - 1;
      }
    }
  }

  std::span<const Word> words() const { return {p_, wordsFor(n_)}; }
  std::span<Word> mutableWords() { return {p_, wordsFor(n_)}; }

  /// "10110..." with bit 0 first.
  std::string toString() const;

  /// Total-order comparison (for use as map keys / canonicalization).
  int compare(const DynBits& o) const;
  bool operator<(const DynBits& o) const { return compare(o) < 0; }

  std::size_t hash() const;

private:
  bool onHeap() const { return n_ > kInlineWords * kWordBits; }
  void release() {
    if (onHeap()) delete[] p_;
  }
  // Take @p o's words, with this holding none: steal a heap block (leaving
  // o empty), copy inline words.
  void adopt(DynBits& o) noexcept;
  void maskTail();

  std::size_t n_ = 0;
  // The words: inline_ up to 128 bits, else one heap block of exactly
  // wordsFor(n_) words. Inline words past wordsFor(n_) stay zero, so an
  // inline copy moves both words without looking at n_.
  Word* p_ = inline_;
  Word inline_[kInlineWords] = {};
};

}  // namespace mcx
