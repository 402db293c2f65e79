#include "scenario/defect_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <type_traits>

#include "util/error.hpp"

namespace mcx {

namespace {

std::string percent(double v) {
  std::ostringstream out;
  out << v * 100.0 << "%";
  return out.str();
}

/// Mark a crosspoint defective without ever downgrading stuck-closed (the
/// harsher failure) back to stuck-open.
void mark(DefectMap& map, std::size_t r, std::size_t c, DefectType t) {
  if (map.isStuckClosed(r, c)) return;
  map.setType(r, c, t);
}

/// @p w with bit i moved to bit 63 - i: a byte swap, then nibbles, pairs
/// and bits swapped within each byte.
BitMatrix::Word reverseBits(BitMatrix::Word w) {
  w = __builtin_bswap64(w);
  w = ((w >> 4) & 0x0f0f0f0f0f0f0f0full) | ((w & 0x0f0f0f0f0f0f0f0full) << 4);
  w = ((w >> 2) & 0x3333333333333333ull) | ((w & 0x3333333333333333ull) << 2);
  w = ((w >> 1) & 0x5555555555555555ull) | ((w & 0x5555555555555555ull) << 1);
  return w;
}

}  // namespace

void DefectModel::generateBlock(std::size_t rows, std::size_t cols, Rng* rngs,
                                DefectMap* outs, std::size_t k) const {
  for (std::size_t i = 0; i < k; ++i) generate(rows, cols, rngs[i], outs[i]);
}

DefectMap DefectModel::sample(std::size_t rows, std::size_t cols, Rng& rng) const {
  DefectMap map;
  generate(rows, cols, rng, map);
  return map;
}

// ----------------------------------------------------------- IidBernoulli

IidBernoulli::IidBernoulli(double stuckOpenRate, double stuckClosedRate)
    : open_(stuckOpenRate), closed_(stuckClosedRate) {
  MCX_REQUIRE(open_ >= 0.0 && closed_ >= 0.0 && open_ + closed_ <= 1.0,
              "IidBernoulli: bad rates");
}

std::string IidBernoulli::describe() const {
  return "iid(open=" + percent(open_) + ", closed=" + percent(closed_) + ")";
}

namespace {

// One stream per lane of a 512-bit register where the target has AVX-512F,
// of a 256-bit one otherwise (two SSE2 registers on generic x86-64, where
// four lanes still run no slower per sample than one scalar stream).
#ifdef __AVX512F__
constexpr std::size_t kDenseLanes = 8;
#else
constexpr std::size_t kDenseLanes = 4;
#endif

/// The dense sweep of samples [0, k) (k <= L) on streams rngs[0, k), one
/// per lane of RngLanes<L>; L = 1 is the scalar loop.
template <std::size_t L>
void iidSweep(std::size_t rows, std::size_t cols, const UniformThreshold& openCut,
              const UniformThreshold& anyCut, Rng* rngs, DefectMap* outs, std::size_t k) {
  // The paper's defect generation ("assigning an independent defect
  // probability/rate to each crosspoint that shows a uniform distribution"):
  // one uniform draw per crosspoint, row by row, stuck-open below the open
  // rate, stuck-closed below the summed rates. Each draw is compared as an
  // integer against both thresholds (exactly the two `uniform() <` tests;
  // see UniformThreshold), the results of up to 64 consecutive crosspoints
  // are gathered in register words, and each matrix takes one store per
  // word.
  using Word = BitMatrix::Word;
  using Lanes = typename RngLanes<L>::Lanes;
  constexpr std::size_t kWordBits = BitMatrix::kWordBits;
  for (std::size_t i = 0; i < k; ++i) outs[i].reshape(rows, cols);
  if (rows == 0 || cols == 0) return;
  // Draw from lane copies of the generators: the word stores go through
  // pointers the compiler cannot prove disjoint from the callers' Rngs,
  // which would pin their state in memory. Written back below.
  RngLanes<L> lanes(rngs, k);
  Word* openBase[L] = {};
  Word* closedBase[L] = {};
  for (std::size_t i = 0; i < k; ++i) {
    openBase[i] = outs[i].mutableOpenBits().rowWords(0).data();
    closedBase[i] = outs[i].mutableClosedBits().rowWords(0).data();
  }
  const std::size_t stride = outs[0].mutableOpenBits().rowWords(0).size();
  // L = 1 compares each draw x with UniformThreshold's limit T * 2^11. The
  // vector lanes compare x >> 11 with T instead: both are below 2^63, so
  // x >> 11 < T exactly when their difference has its sign bit set, one
  // subtract per threshold (SSE2 has no 64-bit vector compare, AVX2 only a
  // signed one).
  constexpr unsigned kLimitShift = L == 1 ? 0 : 11;
  const Lanes openLimit = Lanes{} + (openCut.limit >> kLimitShift);
  const Lanes anyLimit = Lanes{} + (anyCut.limit >> kLimitShift);
  // A rate-1 threshold passes by its flag, not its (wrapped) limit; it is
  // ORed in once per word, so each draw costs one compare per threshold.
  const Word openAll = openCut.always ? ~Word{0} : 0;
  const Word anyAll = anyCut.always ? ~Word{0} : 0;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t w = 0; w < stride; ++w) {
      const std::size_t bits = std::min(kWordBits, cols - w * kWordBits);
      Lanes openWord{}, anyWord{}, x{};
      if constexpr (L == 1) {
        // Each result enters at bit 0 and moves up one place per later draw
        // (a doubling add, no variable shift), so the word holds the
        // columns in reverse; reversing it puts column w*64 + b at bit b.
        for (std::size_t b = 0; b < bits; ++b) {
          lanes.next(x);
          openWord = 2 * openWord + (x < openLimit);
          anyWord = 2 * anyWord + (x < anyLimit);
        }
        openWord = reverseBits(openWord) >> (kWordBits - bits);
        anyWord = reverseBits(anyWord) >> (kWordBits - bits);
      } else {
        // Each result enters at bit 63 and moves down one place per later
        // draw, so after the word's draws column w*64 + b sits at bit
        // 64 - bits + b.
        constexpr Word kSign = Word{1} << 63;
        for (std::size_t b = 0; b < bits; ++b) {
          lanes.next(x);
          const Lanes high = x >> 11;
          openWord = (openWord >> 1) | ((high - openLimit) & kSign);
          anyWord = (anyWord >> 1) | ((high - anyLimit) & kSign);
        }
        openWord >>= kWordBits - bits;
        anyWord >>= kWordBits - bits;
      }
      Word open[L], any[L];
      std::memcpy(open, &openWord, sizeof open);
      std::memcpy(any, &anyWord, sizeof any);
      const Word openFill = openAll >> (kWordBits - bits);
      const Word anyFill = anyAll >> (kWordBits - bits);
      const std::size_t at = r * stride + w;
      for (std::size_t i = 0; i < k; ++i) {
        const Word o = open[i] | openFill;
        const Word a = any[i] | anyFill;
        openBase[i][at] = o;
        closedBase[i][at] = a & ~o;  // open_ <= open_ + closed_: open implies any
      }
    }
  }
  lanes.storeTo(rngs, k);
}

}  // namespace

void IidBernoulli::generate(std::size_t rows, std::size_t cols, Rng& rng,
                            DefectMap& out) const {
  iidSweep<1>(rows, cols, UniformThreshold(open_), UniformThreshold(open_ + closed_), &rng,
              &out, 1);
}

std::size_t IidBernoulli::blockWidth() const { return kDenseLanes; }

void IidBernoulli::generateBlock(std::size_t rows, std::size_t cols, Rng* rngs,
                                 DefectMap* outs, std::size_t k) const {
  const UniformThreshold openCut(open_);
  const UniformThreshold anyCut(open_ + closed_);
  // Blocks wider than the register run as several.
  for (; k > kDenseLanes; k -= kDenseLanes, rngs += kDenseLanes, outs += kDenseLanes)
    iidSweep<kDenseLanes>(rows, cols, openCut, anyCut, rngs, outs, kDenseLanes);
  if (k == 1)
    iidSweep<1>(rows, cols, openCut, anyCut, rngs, outs, 1);
  else if (k > 1)
    iidSweep<kDenseLanes>(rows, cols, openCut, anyCut, rngs, outs, k);
}

// ---------------------------------------------------- SparseIidBernoulli

SparseIidBernoulli::SparseIidBernoulli(double stuckOpenRate, double stuckClosedRate)
    : IidBernoulli(stuckOpenRate, stuckClosedRate) {}

std::string SparseIidBernoulli::describe() const {
  return "iid-sparse(open=" + percent(stuckOpenRate()) +
         ", closed=" + percent(stuckClosedRate()) + ")";
}

std::size_t SparseIidBernoulli::blockWidth() const {
  return dense() ? IidBernoulli::blockWidth() : 1;
}

void SparseIidBernoulli::generateBlock(std::size_t rows, std::size_t cols, Rng* rngs,
                                       DefectMap* outs, std::size_t k) const {
  if (dense())
    IidBernoulli::generateBlock(rows, cols, rngs, outs, k);
  else
    DefectModel::generateBlock(rows, cols, rngs, outs, k);
}

void SparseIidBernoulli::generate(std::size_t rows, std::size_t cols, Rng& rng,
                                  DefectMap& out) const {
  if (dense()) {
    // Dense regime: the distinct-site rejection loop would redraw too
    // often; the parent's one-draw-per-crosspoint sweep wins.
    IidBernoulli::generate(rows, cols, rng, out);
    return;
  }
  const double total = stuckOpenRate() + stuckClosedRate();
  out.reshape(rows, cols);
  if (rows == 0 || cols == 0 || total <= 0.0) return;

  // Draw order (fixed by rows/cols and the rates alone): one uniform for
  // the defect count, then per defect a (row, column) pair — redrawn while
  // it lands on an already-defective site — and, only when both rates are
  // nonzero, one whole-word uniform for the type. Coordinates come from
  // exact 32-bit Lemire reductions of consecutive 32-bit halves of the raw
  // 64-bit draws, low half first (crossbars are far below 2^32 lines; the
  // rejection keeps them exactly uniform).
  MCX_REQUIRE(rows < (std::uint64_t{1} << 32) && cols < (std::uint64_t{1} << 32),
              "SparseIidBernoulli: dimensions exceed the 32-bit sampler");
  const std::uint64_t count = rng.binomial(
      static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols), total);
  const UniformThreshold closedShare(stuckClosedRate() / total);
  const bool allClosed = stuckOpenRate() <= 0.0;
  const bool mixed = stuckClosedRate() > 0.0 && !allClosed;

  // Draw from a local copy of the generator: the placement stores go
  // through raw word pointers the compiler cannot prove disjoint from the
  // caller's Rng, which would pin its state in memory. Written back below.
  Rng local = rng;
  std::uint64_t buffered = 0;
  unsigned bufferedHalves = 0;
  const auto next32 = [&]() -> std::uint32_t {
    if (bufferedHalves == 0) {
      buffered = local();
      bufferedHalves = 2;
    }
    const auto v = static_cast<std::uint32_t>(buffered);
    buffered >>= 32;
    --bufferedHalves;
    return v;
  };
  const auto lemire32 = [&](std::uint64_t n, std::uint32_t reject) -> std::size_t {
    for (;;) {
      const std::uint64_t m = static_cast<std::uint64_t>(next32()) * n;
      if (static_cast<std::uint32_t>(m) >= reject) return static_cast<std::size_t>(m >> 32);
    }
  };
  const auto rejectBound = [](std::uint64_t n) {
    return static_cast<std::uint32_t>((std::uint64_t{1} << 32) % n);
  };
  const std::uint32_t rowReject = rejectBound(rows);
  const std::uint32_t colReject = rejectBound(cols);

  // Placement with raw word access (the per-bit accessors' bounds checks
  // and span setup would double the cost of this O(defects) loop). `place`
  // returns false, drawing nothing, when the site is already defective. A
  // single-type sample writes one matrix and leaves the other clear, so it
  // tests occupancy on that matrix alone.
  using Word = BitMatrix::Word;
  Word* const openBase = out.mutableOpenBits().rowWords(0).data();
  Word* const closedBase = out.mutableClosedBits().rowWords(0).data();
  Word* const singleBase = allClosed ? closedBase : openBase;
  const std::size_t stride = out.mutableOpenBits().rowWords(0).size();
  const auto place = [&](auto mixedTag, std::size_t r, std::size_t c) {
    const std::size_t idx = r * stride + c / BitMatrix::kWordBits;
    const Word mask = Word{1} << (c % BitMatrix::kWordBits);
    if constexpr (decltype(mixedTag)::value) {
      if (((openBase[idx] | closedBase[idx]) & mask) != 0) return false;
      (closedShare.passes(local()) ? closedBase : openBase)[idx] |= mask;
    } else {
      if ((singleBase[idx] & mask) != 0) return false;
      singleBase[idx] |= mask;
    }
    return true;
  };

  // Aligned stream: while no reduction has rejected, each candidate site
  // consumes exactly one raw draw — row from the low half, column from the
  // high half — and a type uniform is the next whole draw. That is the
  // pairing next32 produces while its buffer is empty at every site, so
  // this loop skips the buffer. A rejection shifts the halves; the rest of
  // the sample then runs on the half-buffered loop.
  const auto placeAll = [&](auto mixedTag) {
    std::uint64_t left = count;
    while (left != 0) {
      const std::uint64_t x = local();
      const std::uint64_t mr = (x & 0xffffffffu) * rows;
      if (static_cast<std::uint32_t>(mr) < rowReject) {
        buffered = x >> 32;  // the high half is the row's next candidate
        bufferedHalves = 1;
        break;
      }
      const std::uint64_t mc = (x >> 32) * cols;
      if (static_cast<std::uint32_t>(mc) < colReject) {
        // The row stands; its column redraws from fresh halves.
        if (place(mixedTag, static_cast<std::size_t>(mr >> 32), lemire32(cols, colReject)))
          --left;
        break;
      }
      if (place(mixedTag, static_cast<std::size_t>(mr >> 32), static_cast<std::size_t>(mc >> 32)))
        --left;
    }
    for (; left != 0; --left) {
      for (;;) {
        const std::size_t r = lemire32(rows, rowReject);  // row before column
        if (place(mixedTag, r, lemire32(cols, colReject))) break;
      }
    }
  };
  if (mixed)
    placeAll(std::true_type{});
  else
    placeAll(std::false_type{});
  rng = local;
}

// -------------------------------------------------------- ClusteredDefects

ClusteredDefects::ClusteredDefects(Params params) : params_(params) {
  // Density is seeds per crosspoint, so like every other rate it lives in
  // [0,1]; an unbounded value would overflow the cluster-count cast below.
  MCX_REQUIRE(params_.clusterDensity >= 0.0 && params_.clusterDensity <= 1.0,
              "ClusteredDefects: density in [0,1]");
  MCX_REQUIRE(params_.spread >= 0.0 && params_.spread < 1.0,
              "ClusteredDefects: spread in [0,1)");
  MCX_REQUIRE(params_.stuckClosedShare >= 0.0 && params_.stuckClosedShare <= 1.0,
              "ClusteredDefects: closed share in [0,1]");
}

std::string ClusteredDefects::describe() const {
  std::ostringstream out;
  out << "clustered(density=" << params_.clusterDensity << ", spread=" << params_.spread
      << ", closedShare=" << percent(params_.stuckClosedShare) << ")";
  return out.str();
}

void ClusteredDefects::generate(std::size_t rows, std::size_t cols, Rng& rng,
                                DefectMap& out) const {
  out.reshape(rows, cols);
  if (rows == 0 || cols == 0) return;

  const double expected = params_.clusterDensity * static_cast<double>(rows * cols);
  std::size_t clusters = static_cast<std::size_t>(expected);
  if (rng.bernoulli(expected - static_cast<double>(clusters))) ++clusters;

  for (std::size_t k = 0; k < clusters; ++k) {
    std::size_t r = static_cast<std::size_t>(rng.uniformInt(0, rows - 1));
    std::size_t c = static_cast<std::size_t>(rng.uniformInt(0, cols - 1));
    for (;;) {
      const DefectType t = rng.bernoulli(params_.stuckClosedShare) ? DefectType::StuckClosed
                                                                   : DefectType::StuckOpen;
      mark(out, r, c, t);
      if (!rng.bernoulli(params_.spread)) break;
      // Grow by one step of a lattice random walk, clamped at the borders
      // (edge clusters hug the edge, as real particles do).
      switch (rng.uniformInt(0, 3)) {
        case 0: r = r + 1 < rows ? r + 1 : r; break;
        case 1: r = r > 0 ? r - 1 : r; break;
        case 2: c = c + 1 < cols ? c + 1 : c; break;
        default: c = c > 0 ? c - 1 : c; break;
      }
    }
  }
}

// --------------------------------------------------------- LineCorrelated

LineCorrelated::LineCorrelated(Params params) : params_(params) {
  for (const double p : {params_.rowStuckClosedRate, params_.colStuckClosedRate,
                         params_.rowStuckOpenRate, params_.colStuckOpenRate})
    MCX_REQUIRE(p >= 0.0 && p <= 1.0, "LineCorrelated: rates in [0,1]");
}

std::string LineCorrelated::describe() const {
  return "lines(rowClosed=" + percent(params_.rowStuckClosedRate) +
         ", colClosed=" + percent(params_.colStuckClosedRate) +
         ", rowOpen=" + percent(params_.rowStuckOpenRate) +
         ", colOpen=" + percent(params_.colStuckOpenRate) + ")";
}

void LineCorrelated::generate(std::size_t rows, std::size_t cols, Rng& rng,
                              DefectMap& out) const {
  out.reshape(rows, cols);
  if (rows == 0 || cols == 0) return;

  for (std::size_t r = 0; r < rows; ++r) {
    if (rng.bernoulli(params_.rowStuckOpenRate))
      for (std::size_t c = 0; c < cols; ++c) mark(out, r, c, DefectType::StuckOpen);
    if (rng.bernoulli(params_.rowStuckClosedRate)) {
      const std::size_t c = static_cast<std::size_t>(rng.uniformInt(0, cols - 1));
      mark(out, r, c, DefectType::StuckClosed);
    }
  }
  for (std::size_t c = 0; c < cols; ++c) {
    if (rng.bernoulli(params_.colStuckOpenRate))
      for (std::size_t r = 0; r < rows; ++r) mark(out, r, c, DefectType::StuckOpen);
    if (rng.bernoulli(params_.colStuckClosedRate)) {
      const std::size_t r = static_cast<std::size_t>(rng.uniformInt(0, rows - 1));
      mark(out, r, c, DefectType::StuckClosed);
    }
  }
}

// --------------------------------------------------------- RadialGradient

RadialGradient::RadialGradient(Params params) : params_(params) {
  MCX_REQUIRE(params_.centerRate >= 0.0 && params_.centerRate <= 1.0 &&
                  params_.edgeRate >= 0.0 && params_.edgeRate <= 1.0,
              "RadialGradient: rates in [0,1]");
  MCX_REQUIRE(params_.stuckClosedShare >= 0.0 && params_.stuckClosedShare <= 1.0,
              "RadialGradient: closed share in [0,1]");
}

std::string RadialGradient::describe() const {
  return "gradient(center=" + percent(params_.centerRate) +
         ", edge=" + percent(params_.edgeRate) +
         ", closedShare=" + percent(params_.stuckClosedShare) + ")";
}

void RadialGradient::generate(std::size_t rows, std::size_t cols, Rng& rng,
                              DefectMap& out) const {
  out.reshape(rows, cols);
  if (rows == 0 || cols == 0) return;

  const double centerR = static_cast<double>(rows - 1) / 2.0;
  const double centerC = static_cast<double>(cols - 1) / 2.0;
  const double maxDist = std::sqrt(centerR * centerR + centerC * centerC);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double dr = static_cast<double>(r) - centerR;
      const double dc = static_cast<double>(c) - centerC;
      const double d = maxDist > 0 ? std::sqrt(dr * dr + dc * dc) / maxDist : 0.0;
      const double p = params_.centerRate + (params_.edgeRate - params_.centerRate) * d;
      const double u = rng.uniform();
      if (u < p * (1.0 - params_.stuckClosedShare))
        out.setType(r, c, DefectType::StuckOpen);
      else if (u < p)
        out.setType(r, c, DefectType::StuckClosed);
    }
  }
}

// --------------------------------------------------------- CompositeModel

CompositeModel::CompositeModel(std::string label,
                               std::vector<std::shared_ptr<const DefectModel>> parts)
    : label_(std::move(label)), parts_(std::move(parts)) {
  MCX_REQUIRE(!parts_.empty(), "CompositeModel: needs at least one part");
  for (const auto& part : parts_)
    MCX_REQUIRE(part != nullptr, "CompositeModel: null part");
}

std::string CompositeModel::describe() const {
  std::string out = label_ + " = ";
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (i > 0) out += " + ";
    out += parts_[i]->describe();
  }
  return out;
}

void CompositeModel::generate(std::size_t rows, std::size_t cols, Rng& rng,
                              DefectMap& out) const {
  // The first part writes straight into the caller's scratch; later parts
  // reuse a per-thread buffer, keeping the Monte Carlo hot loop
  // allocation-free per sample (the engine's scratch-arena contract). A
  // *nested* composite among the later parts would receive that same
  // buffer as its own `out` and self-overlay, so the shared scratch is
  // borrowed only at the outermost level — recursive calls fall back to a
  // local buffer.
  parts_[0]->generate(rows, cols, rng, out);
  if (parts_.size() == 1) return;
  thread_local DefectMap sharedScratch;
  thread_local bool sharedScratchBusy = false;
  struct Borrow {
    bool taken;
    bool& busy;
    explicit Borrow(bool& b) : taken(!b), busy(b) {
      if (taken) busy = true;
    }
    ~Borrow() {
      if (taken) busy = false;
    }
  } borrow(sharedScratchBusy);
  DefectMap local;
  DefectMap& part = borrow.taken ? sharedScratch : local;
  for (std::size_t i = 1; i < parts_.size(); ++i) {
    parts_[i]->generate(rows, cols, rng, part);
    out.overlay(part);
  }
}

}  // namespace mcx
