#include "util/bits.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace mcx {
namespace {

TEST(DynBits, DefaultIsEmpty) {
  DynBits b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(b.none());
}

TEST(DynBits, ConstructAllClear) {
  DynBits b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_FALSE(b.any());
}

TEST(DynBits, ConstructAllSetMasksTail) {
  DynBits b(70, true);
  EXPECT_EQ(b.count(), 70u);
  EXPECT_TRUE(b.all());
  // The tail word must not carry bits beyond size().
  EXPECT_EQ(b.words()[1] >> 6, 0u);
}

TEST(DynBits, SetResetFlipTest) {
  DynBits b(100);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(99);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(99));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  b.flip(63);
  EXPECT_TRUE(b.test(63));
  b.set(0, false);
  EXPECT_FALSE(b.test(0));
}

TEST(DynBits, OutOfRangeThrows) {
  DynBits b(10);
  EXPECT_THROW(b.test(10), InvalidArgument);
  EXPECT_THROW(b.set(10), InvalidArgument);
  EXPECT_THROW(b.reset(11), InvalidArgument);
}

TEST(DynBits, FindFirstAndNext) {
  DynBits b(200);
  EXPECT_EQ(b.findFirst(), 200u);
  b.set(5);
  b.set(77);
  b.set(199);
  EXPECT_EQ(b.findFirst(), 5u);
  EXPECT_EQ(b.findNext(6), 77u);
  EXPECT_EQ(b.findNext(78), 199u);
  EXPECT_EQ(b.findNext(200), 200u);
}

TEST(DynBits, BitwiseOps) {
  DynBits a(96), b(96);
  a.set(1);
  a.set(70);
  b.set(70);
  b.set(90);
  DynBits andBits = a & b;
  EXPECT_EQ(andBits.count(), 1u);
  EXPECT_TRUE(andBits.test(70));
  DynBits orBits = a | b;
  EXPECT_EQ(orBits.count(), 3u);
  DynBits xorBits = a ^ b;
  EXPECT_EQ(xorBits.count(), 2u);
  EXPECT_FALSE(xorBits.test(70));
  DynBits diff = a;
  diff.andNot(b);
  EXPECT_EQ(diff.count(), 1u);
  EXPECT_TRUE(diff.test(1));
}

TEST(DynBits, ComplementMasksTail) {
  DynBits a(67);
  a.set(3);
  DynBits c = ~a;
  EXPECT_EQ(c.count(), 66u);
  EXPECT_FALSE(c.test(3));
  EXPECT_TRUE(c.test(66));
}

TEST(DynBits, SizeMismatchThrows) {
  DynBits a(5), b(6);
  EXPECT_THROW(a &= b, InvalidArgument);
  EXPECT_THROW(a.subsetOf(b), InvalidArgument);
}

TEST(DynBits, SubsetAndIntersect) {
  DynBits a(128), b(128);
  a.set(10);
  a.set(100);
  b.set(10);
  b.set(100);
  b.set(50);
  EXPECT_TRUE(a.subsetOf(b));
  EXPECT_FALSE(b.subsetOf(a));
  EXPECT_TRUE(a.intersects(b));
  DynBits c(128);
  c.set(51);
  EXPECT_FALSE(a.intersects(c));
  EXPECT_TRUE(c.subsetOf(b | c));
}

TEST(DynBits, SetAllResetAll) {
  DynBits a(130);
  a.setAll();
  EXPECT_TRUE(a.all());
  a.resetAll();
  EXPECT_TRUE(a.none());
}

TEST(DynBits, ForEachSetVisitsInOrder) {
  DynBits a(300);
  const std::size_t positions[] = {0, 63, 64, 128, 299};
  for (const std::size_t p : positions) a.set(p);
  std::vector<std::size_t> seen;
  a.forEachSet([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, std::vector<std::size_t>(std::begin(positions), std::end(positions)));
}

TEST(DynBits, ToStringPlacesBitZeroFirst) {
  DynBits a(5);
  a.set(0);
  a.set(3);
  EXPECT_EQ(a.toString(), "10010");
}

TEST(DynBits, CompareIsTotalOrder) {
  DynBits a(64), b(64);
  EXPECT_EQ(a.compare(b), 0);
  b.set(1);
  EXPECT_NE(a.compare(b), 0);
  EXPECT_EQ(a.compare(b), -b.compare(a));
  DynBits shorter(10);
  EXPECT_LT(shorter.compare(a), 0);
}

TEST(DynBits, HashDiffersForDifferentContent) {
  DynBits a(64), b(64);
  b.set(13);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(DynBits, RandomizedCountMatchesReference) {
  Rng rng(42);
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniformInt(0, 400));
    DynBits bits(n);
    std::size_t expected = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(0.3)) {
        if (!bits.test(i)) ++expected;
        bits.set(i);
      }
    }
    EXPECT_EQ(bits.count(), expected);
  }
}

// --- Inline <-> heap storage boundary ------------------------------------

// Sizes on both sides of each word edge and of the 128-bit inline capacity.
const std::size_t kBoundarySizes[] = {0, 1, 63, 64, 65, 127, 128, 129, 1024};

using Ref = std::vector<bool>;

Ref randomRef(std::size_t n, Rng& rng) {
  Ref ref(n);
  for (std::size_t i = 0; i < n; ++i) ref[i] = rng.bernoulli(0.4);
  return ref;
}

DynBits fromRef(const Ref& ref) {
  DynBits b(ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    if (ref[i]) b.set(i);
  return b;
}

std::vector<DynBits::Word> refWords(const Ref& ref) {
  std::vector<DynBits::Word> words(DynBits::wordsFor(ref.size()), 0);
  for (std::size_t i = 0; i < ref.size(); ++i)
    if (ref[i]) words[i / 64] |= DynBits::Word{1} << (i % 64);
  return words;
}

// Every observable of @p b against the reference: size, bits, word view
// (tail bits clear), count, forEachSet order and findNext from every index.
void expectMatches(const DynBits& b, const Ref& ref) {
  ASSERT_EQ(b.size(), ref.size());
  const auto words = b.words();
  const std::vector<DynBits::Word> want = refWords(ref);
  ASSERT_EQ(words.size(), want.size());
  for (std::size_t w = 0; w < want.size(); ++w) EXPECT_EQ(words[w], want[w]) << "word " << w;
  std::vector<std::size_t> set;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(b.test(i), bool(ref[i])) << "bit " << i;
    if (ref[i]) set.push_back(i);
  }
  EXPECT_EQ(b.count(), set.size());
  std::vector<std::size_t> seen;
  b.forEachSet([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, set);
  for (std::size_t from = 0; from <= ref.size(); ++from) {
    std::size_t next = from;
    while (next < ref.size() && !ref[next]) ++next;
    ASSERT_EQ(b.findNext(from), next) << "from " << from;
  }
}

TEST(DynBitsStorage, ConstructAtEverySize) {
  Rng rng(7);
  for (const std::size_t n : kBoundarySizes) {
    SCOPED_TRACE(n);
    expectMatches(DynBits(n), Ref(n, false));
    expectMatches(DynBits(n, true), Ref(n, true));
    const Ref ref = randomRef(n, rng);
    expectMatches(fromRef(ref), ref);
  }
}

TEST(DynBitsStorage, CopyAndMoveAcrossTheInlineBoundary) {
  Rng rng(11);
  for (const std::size_t from : kBoundarySizes) {
    for (const std::size_t to : kBoundarySizes) {
      SCOPED_TRACE(testing::Message() << from << " -> " << to);
      const Ref src = randomRef(from, rng);
      const Ref old = randomRef(to, rng);

      DynBits original = fromRef(src);
      const DynBits copied(original);  // copy construct
      expectMatches(copied, src);
      expectMatches(original, src);

      DynBits target = fromRef(old);  // copy assign over a bitset of size `to`
      target = original;
      expectMatches(target, src);
      expectMatches(original, src);

      DynBits moveTarget = fromRef(old);  // move assign over a bitset of size `to`
      DynBits moving = fromRef(src);
      moveTarget = std::move(moving);
      expectMatches(moveTarget, src);
      // A moved-from bitset is reusable: assign to it, then copy it.
      moving = fromRef(old);
      expectMatches(moving, old);
      moving = DynBits(to, true);
      expectMatches(moving, Ref(to, true));

      DynBits stolen = fromRef(src);
      DynBits moved(std::move(stolen));  // move construct
      expectMatches(moved, src);
      // Heap words are stolen (the source is left empty); inline words are
      // copied (the source keeps them).
      expectMatches(stolen, from > 128 ? Ref{} : src);
      stolen = moveTarget;
      expectMatches(stolen, src);
    }
  }
}

TEST(DynBitsStorage, SelfAssignmentKeepsTheBits) {
  Rng rng(13);
  for (const std::size_t n : kBoundarySizes) {
    SCOPED_TRACE(n);
    const Ref ref = randomRef(n, rng);
    DynBits b = fromRef(ref);
    DynBits& alias = b;
    b = alias;
    expectMatches(b, ref);
    b = std::move(alias);
    expectMatches(b, ref);
  }
}

TEST(DynBitsStorage, OperatorsMatchTheReference) {
  Rng rng(17);
  for (const std::size_t n : kBoundarySizes) {
    SCOPED_TRACE(n);
    for (int round = 0; round < 8; ++round) {
      const Ref ra = randomRef(n, rng);
      Ref rb = randomRef(n, rng);
      if (round == 0) rb = ra;
      const DynBits a = fromRef(ra);
      const DynBits b = fromRef(rb);

      Ref notA(n);
      for (std::size_t i = 0; i < n; ++i) notA[i] = !ra[i];
      expectMatches(~a, notA);

      EXPECT_EQ(a == b, ra == rb);
      EXPECT_EQ(a != b, ra != rb);
      // compare orders by size, then word by word from word 0, unsigned.
      const std::vector<DynBits::Word> wa = refWords(ra);
      const std::vector<DynBits::Word> wb = refWords(rb);
      int want = 0;
      for (std::size_t w = 0; w < wa.size() && want == 0; ++w)
        if (wa[w] != wb[w]) want = wa[w] < wb[w] ? -1 : 1;
      EXPECT_EQ(a.compare(b), want);
      EXPECT_EQ(b.compare(a), -want);
      EXPECT_EQ(a < b, want < 0);

      std::size_t h = n * 0x9e3779b97f4a7c15ull;
      for (const DynBits::Word w : wa) h ^= w + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      EXPECT_EQ(a.hash(), h);
      if (ra == rb) {
        EXPECT_EQ(a.hash(), b.hash());
      }
    }
    // Sizes order first, whatever the words hold.
    if (n > 0) {
      EXPECT_LT(DynBits(n - 1, true).compare(DynBits(n)), 0);
      EXPECT_NE(DynBits(n - 1), DynBits(n));
    }
  }
}

}  // namespace
}  // namespace mcx
