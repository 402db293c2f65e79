#include "scenario/defect_model.hpp"

#include <cmath>
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

}  // namespace

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

void IidBernoulli::generate(std::size_t rows, std::size_t cols, Rng& rng,
                            DefectMap& out) const {
  // The paper's defect generation ("assigning an independent defect
  // probability/rate to each crosspoint that shows a uniform distribution"):
  // one uniform draw per crosspoint, row by row, split into stuck-open /
  // stuck-closed / functional by the rates.
  out.reshape(rows, cols);
  BitMatrix& open = out.mutableOpenBits();
  BitMatrix& closed = out.mutableClosedBits();
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double u = rng.uniform();
      if (u < open_)
        open.set(r, c);
      else if (u < open_ + closed_)
        closed.set(r, c);
    }
  }
}

// ---------------------------------------------------- SparseIidBernoulli

SparseIidBernoulli::SparseIidBernoulli(double stuckOpenRate, double stuckClosedRate)
    : IidBernoulli(stuckOpenRate, stuckClosedRate) {}

std::string SparseIidBernoulli::describe() const {
  return "iid-sparse(open=" + percent(stuckOpenRate()) +
         ", closed=" + percent(stuckClosedRate()) + ")";
}

void SparseIidBernoulli::generate(std::size_t rows, std::size_t cols, Rng& rng,
                                  DefectMap& out) const {
  const double total = stuckOpenRate() + stuckClosedRate();
  if (total > kDenseRateCutoff) {
    // Dense regime: the distinct-site rejection loop would redraw too
    // often; the parent's one-draw-per-crosspoint sweep wins.
    IidBernoulli::generate(rows, cols, rng, out);
    return;
  }
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
  const double closedShare = stuckClosedRate() / total;
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
      (local.uniform() < closedShare ? closedBase : openBase)[idx] |= mask;
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
