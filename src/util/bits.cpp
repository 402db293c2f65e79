#include "util/bits.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace mcx {

namespace {
constexpr std::size_t wordIndex(std::size_t i) { return i / DynBits::kWordBits; }
constexpr DynBits::Word wordMask(std::size_t i) {
  return DynBits::Word{1} << (i % DynBits::kWordBits);
}
}  // namespace

DynBits::DynBits(std::size_t n, bool value) : n_(n) {
  const Word fill = value ? ~Word{0} : Word{0};
  if (onHeap()) p_ = new Word[wordsFor(n_)];
  std::fill_n(p_, wordsFor(n_), fill);
  if (value) maskTail();
}

DynBits::DynBits(const DynBits& o) : n_(o.n_) {
  if (onHeap()) {
    p_ = new Word[wordsFor(n_)];
    std::copy_n(o.p_, wordsFor(n_), p_);
  } else {
    std::copy_n(o.inline_, kInlineWords, inline_);
  }
}

DynBits::DynBits(DynBits&& o) noexcept { adopt(o); }

DynBits& DynBits::operator=(const DynBits& o) {
  if (this == &o) return *this;
  if (o.onHeap()) {
    const std::size_t nw = wordsFor(o.n_);
    if (!onHeap() || wordsFor(n_) != nw) {
      Word* block = new Word[nw];
      release();
      p_ = block;
    }
    std::copy_n(o.p_, nw, p_);
  } else {
    release();
    p_ = inline_;
    std::copy_n(o.inline_, kInlineWords, inline_);
  }
  n_ = o.n_;
  return *this;
}

DynBits& DynBits::operator=(DynBits&& o) noexcept {
  if (this == &o) return *this;
  release();
  adopt(o);
  return *this;
}

void DynBits::adopt(DynBits& o) noexcept {
  n_ = o.n_;
  if (o.onHeap()) {
    p_ = o.p_;
    o.p_ = o.inline_;
    o.n_ = 0;
    std::fill_n(o.inline_, kInlineWords, Word{0});
  } else {
    p_ = inline_;
    std::copy_n(o.inline_, kInlineWords, inline_);
  }
}

void DynBits::maskTail() {
  const std::size_t rem = n_ % kWordBits;
  if (rem != 0) p_[wordsFor(n_) - 1] &= (Word{1} << rem) - 1;
}

bool DynBits::test(std::size_t i) const {
  MCX_REQUIRE(i < n_, "DynBits::test out of range");
  return (p_[wordIndex(i)] & wordMask(i)) != 0;
}

void DynBits::set(std::size_t i) {
  MCX_REQUIRE(i < n_, "DynBits::set out of range");
  p_[wordIndex(i)] |= wordMask(i);
}

void DynBits::set(std::size_t i, bool value) { value ? set(i) : reset(i); }

void DynBits::reset(std::size_t i) {
  MCX_REQUIRE(i < n_, "DynBits::reset out of range");
  p_[wordIndex(i)] &= ~wordMask(i);
}

void DynBits::flip(std::size_t i) {
  MCX_REQUIRE(i < n_, "DynBits::flip out of range");
  p_[wordIndex(i)] ^= wordMask(i);
}

void DynBits::setAll() {
  std::fill_n(p_, wordsFor(n_), ~Word{0});
  maskTail();
}

void DynBits::resetAll() { std::fill_n(p_, wordsFor(n_), Word{0}); }

std::size_t DynBits::count() const {
  std::size_t c = 0;
  for (Word w : words()) c += static_cast<std::size_t>(std::popcount(w));
  return c;
}

bool DynBits::any() const {
  for (Word w : words())
    if (w != 0) return true;
  return false;
}

bool DynBits::all() const { return count() == n_; }

std::size_t DynBits::findFirst() const { return findNext(0); }

std::size_t DynBits::findNext(std::size_t from) const {
  if (from >= n_) return n_;
  const std::span<const Word> ws = words();
  std::size_t wi = wordIndex(from);
  Word w = ws[wi] & (~Word{0} << (from % kWordBits));
  while (true) {
    if (w != 0) {
      const std::size_t i = wi * kWordBits + static_cast<std::size_t>(std::countr_zero(w));
      return i < n_ ? i : n_;
    }
    if (++wi >= ws.size()) return n_;
    w = ws[wi];
  }
}

DynBits& DynBits::operator&=(const DynBits& o) {
  MCX_REQUIRE(n_ == o.n_, "DynBits size mismatch");
  Word* w = p_;
  const Word* ow = o.p_;
  for (std::size_t i = 0; i < wordsFor(n_); ++i) w[i] &= ow[i];
  return *this;
}

DynBits& DynBits::operator|=(const DynBits& o) {
  MCX_REQUIRE(n_ == o.n_, "DynBits size mismatch");
  Word* w = p_;
  const Word* ow = o.p_;
  for (std::size_t i = 0; i < wordsFor(n_); ++i) w[i] |= ow[i];
  return *this;
}

DynBits& DynBits::operator^=(const DynBits& o) {
  MCX_REQUIRE(n_ == o.n_, "DynBits size mismatch");
  Word* w = p_;
  const Word* ow = o.p_;
  for (std::size_t i = 0; i < wordsFor(n_); ++i) w[i] ^= ow[i];
  return *this;
}

DynBits& DynBits::andNot(const DynBits& o) {
  MCX_REQUIRE(n_ == o.n_, "DynBits size mismatch");
  Word* w = p_;
  const Word* ow = o.p_;
  for (std::size_t i = 0; i < wordsFor(n_); ++i) w[i] &= ~ow[i];
  return *this;
}

DynBits DynBits::operator~() const {
  DynBits r(*this);
  for (Word& w : r.mutableWords()) w = ~w;
  r.maskTail();
  return r;
}

bool DynBits::operator==(const DynBits& o) const {
  return n_ == o.n_ && std::equal(p_, p_ + wordsFor(n_), o.p_);
}

bool DynBits::subsetOf(const DynBits& o) const {
  MCX_REQUIRE(n_ == o.n_, "DynBits size mismatch");
  const Word* w = p_;
  const Word* ow = o.p_;
  for (std::size_t i = 0; i < wordsFor(n_); ++i)
    if ((w[i] & ~ow[i]) != 0) return false;
  return true;
}

bool DynBits::intersects(const DynBits& o) const {
  MCX_REQUIRE(n_ == o.n_, "DynBits size mismatch");
  const Word* w = p_;
  const Word* ow = o.p_;
  for (std::size_t i = 0; i < wordsFor(n_); ++i)
    if ((w[i] & ow[i]) != 0) return true;
  return false;
}

std::string DynBits::toString() const {
  std::string s(n_, '0');
  forEachSet([&](std::size_t i) { s[i] = '1'; });
  return s;
}

int DynBits::compare(const DynBits& o) const {
  if (n_ != o.n_) return n_ < o.n_ ? -1 : 1;
  const Word* w = p_;
  const Word* ow = o.p_;
  for (std::size_t i = 0; i < wordsFor(n_); ++i)
    if (w[i] != ow[i]) return w[i] < ow[i] ? -1 : 1;
  return 0;
}

std::size_t DynBits::hash() const {
  std::size_t h = n_ * 0x9e3779b97f4a7c15ull;
  for (Word w : words()) {
    h ^= w + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace mcx
