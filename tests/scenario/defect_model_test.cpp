#include "scenario/defect_model.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "oracles/iid_reference.hpp"
#include "util/error.hpp"

namespace mcx {
namespace {

bool sameMap(const DefectMap& a, const DefectMap& b) {
  return a.openBits() == b.openBits() && a.closedBits() == b.closedBits();
}

// --- IidBernoulli: the regression anchor of the whole rewiring -----------

TEST(IidBernoulli, DrawForDrawIdenticalToLegacyResample) {
  const IidBernoulli model(0.12, 0.03);
  for (const std::uint64_t seed : {1ull, 42ull, 0xfeedull}) {
    Rng a(seed), b(seed);
    const DefectMap viaModel = model.sample(37, 53, a);
    DefectMap viaLegacy;
    reference::iidSample(37, 53, 0.12, 0.03, b, viaLegacy);
    EXPECT_EQ(viaModel.openBits(), viaLegacy.openBits()) << "seed=" << seed;
    EXPECT_EQ(viaModel.closedBits(), viaLegacy.closedBits()) << "seed=" << seed;
    // Identical draw *counts* too: the streams must stay in lockstep.
    EXPECT_EQ(a(), b()) << "seed=" << seed;
  }
}

TEST(IidBernoulli, SampleIsDeterministicAndCalibrated) {
  const IidBernoulli model(0.1, 0.02);
  Rng a(12), b(12);
  const DefectMap m1 = model.sample(100, 100, a);
  const DefectMap m2 = model.sample(100, 100, b);
  EXPECT_EQ(m1.stuckOpenCount(), m2.stuckOpenCount());
  EXPECT_EQ(m1.stuckClosedCount(), m2.stuckClosedCount());
  EXPECT_NEAR(static_cast<double>(m1.stuckOpenCount()) / 10000.0, 0.1, 0.02);
  EXPECT_NEAR(static_cast<double>(m1.stuckClosedCount()) / 10000.0, 0.02, 0.01);
}

TEST(IidBernoulli, Validation) {
  EXPECT_THROW(IidBernoulli(-0.1, 0.0), InvalidArgument);
  EXPECT_THROW(IidBernoulli(0.6, 0.6), InvalidArgument);
}

// --- SparseIidBernoulli ----------------------------------------------------

TEST(SparseIidBernoulli, StatisticallyEquivalentToLegacySampler) {
  // The O(defects) sampler draws from the same i.i.d. distribution as the
  // legacy per-crosspoint sweep: defect-count mean/variance and the
  // per-cell marginal rate must agree within sampling tolerance.
  const std::size_t rows = 64, cols = 64;
  const double p = 0.10;
  const int reps = 2000;
  const SparseIidBernoulli sparse(p, 0.0);
  const IidBernoulli legacy(p, 0.0);

  struct Moments {
    double mean = 0, var = 0;
    std::vector<std::size_t> perCell;
  };
  const auto collect = [&](const DefectModel& model, std::uint64_t seed) {
    Rng rng(seed);
    DefectMap map;
    Moments m;
    m.perCell.assign(rows * cols, 0);
    double sum = 0, sumSq = 0;
    for (int i = 0; i < reps; ++i) {
      model.generate(rows, cols, rng, map);
      const auto k = static_cast<double>(map.stuckOpenCount());
      sum += k;
      sumSq += k * k;
      for (std::size_t r = 0; r < rows; ++r) {
        const auto words = map.openBits().rowWords(r);
        for (std::size_t w = 0; w < words.size(); ++w) {
          BitMatrix::Word bits = words[w];
          while (bits != 0) {
            const std::size_t c =
                w * BitMatrix::kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            ++m.perCell[r * cols + c];
          }
        }
      }
    }
    m.mean = sum / reps;
    m.var = sumSq / reps - m.mean * m.mean;
    return m;
  };

  const Moments a = collect(sparse, 101);
  const Moments b = collect(legacy, 202);
  const double expectedMean = static_cast<double>(rows * cols) * p;  // 409.6
  const double expectedVar = expectedMean * (1.0 - p);               // 368.6
  EXPECT_NEAR(a.mean, expectedMean, 2.0);
  EXPECT_NEAR(a.mean, b.mean, 3.0);
  EXPECT_NEAR(a.var, expectedVar, expectedVar * 0.12);
  // Per-cell marginal: each cell is Binomial(reps, p) -> sd of the rate is
  // ~0.0067; bound the worst cell at ~6 sigma.
  for (std::size_t cell = 0; cell < rows * cols; ++cell) {
    const double rate = static_cast<double>(a.perCell[cell]) / reps;
    ASSERT_NEAR(rate, p, 0.04) << "cell=" << cell;
  }
}

TEST(SparseIidBernoulli, MixedRatesSplitTypesByShare) {
  const SparseIidBernoulli model(0.09, 0.01);
  Rng rng(7);
  DefectMap map;
  std::size_t open = 0, closed = 0;
  for (int i = 0; i < 300; ++i) {
    model.generate(96, 96, rng, map);
    open += map.stuckOpenCount();
    closed += map.stuckClosedCount();
  }
  const double total = static_cast<double>(open + closed);
  EXPECT_NEAR(total / (300.0 * 96 * 96), 0.10, 0.005);
  EXPECT_NEAR(static_cast<double>(closed) / total, 0.10, 0.02);
}

TEST(SparseIidBernoulli, DenseRatesFallBackToTheLegacySweep) {
  // Above the cutoff the rejection loop stops paying; the model must fall
  // back to the parent's draw-for-draw dense sweep.
  const double rate = SparseIidBernoulli::kDenseRateCutoff + 0.10;
  const SparseIidBernoulli sparse(rate, 0.0);
  const IidBernoulli dense(rate, 0.0);
  Rng a(17), b(17);
  EXPECT_TRUE(sameMap(sparse.sample(30, 41, a), dense.sample(30, 41, b)));
  EXPECT_EQ(a(), b());
}

// --- ClusteredDefects ------------------------------------------------------

TEST(ClusteredDefects, DefectsAreSpatiallyClustered) {
  ClusteredDefects::Params p;
  p.clusterDensity = 2e-3;
  p.spread = 0.9;  // expected cluster size 10
  const ClusteredDefects model(p);
  Rng rng(7);
  const DefectMap map = model.sample(96, 96, rng);
  ASSERT_GT(map.stuckOpenCount(), 0u);

  // A random-walk cluster leaves its cells 4-adjacent; single-cell clusters
  // (probability 1 - spread) are the only isolated ones, so the adjacency
  // share must be far above what i.i.d. sprinkling at this density gives.
  std::size_t defective = 0, adjacent = 0;
  for (std::size_t r = 0; r < map.rows(); ++r) {
    for (std::size_t c = 0; c < map.cols(); ++c) {
      if (map.type(r, c) == DefectType::None) continue;
      ++defective;
      const bool nb =
          (r > 0 && map.type(r - 1, c) != DefectType::None) ||
          (r + 1 < map.rows() && map.type(r + 1, c) != DefectType::None) ||
          (c > 0 && map.type(r, c - 1) != DefectType::None) ||
          (c + 1 < map.cols() && map.type(r, c + 1) != DefectType::None);
      if (nb) ++adjacent;
    }
  }
  EXPECT_GT(static_cast<double>(adjacent) / static_cast<double>(defective), 0.5);
}

TEST(ClusteredDefects, Validation) {
  ClusteredDefects::Params p;
  p.clusterDensity = 1e300;  // would overflow the cluster-count cast
  EXPECT_THROW(ClusteredDefects{p}, InvalidArgument);
  p.clusterDensity = 5e-4;
  p.spread = 1.0;  // would never terminate a cluster walk
  EXPECT_THROW(ClusteredDefects{p}, InvalidArgument);
}

TEST(ClusteredDefects, DeterministicPerSeed) {
  ClusteredDefects::Params p;
  p.clusterDensity = 1e-3;
  const ClusteredDefects model(p);
  Rng a(11), b(11), c(12);
  EXPECT_TRUE(sameMap(model.sample(64, 64, a), model.sample(64, 64, b)));
  Rng a2(11);
  EXPECT_FALSE(sameMap(model.sample(64, 64, a2), model.sample(64, 64, c)));
}

// --- LineCorrelated --------------------------------------------------------

TEST(LineCorrelated, CertainRowFailurePoisonsEveryRow) {
  LineCorrelated::Params p;
  p.rowStuckClosedRate = 1.0;
  const LineCorrelated model(p);
  Rng rng(3);
  const DefectMap map = model.sample(12, 20, rng);
  for (std::size_t r = 0; r < map.rows(); ++r) EXPECT_TRUE(map.rowPoisoned(r)) << r;
  EXPECT_EQ(map.stuckClosedCount(), 12u);  // exactly one closed crosspoint per row
}

TEST(LineCorrelated, WholeLineStuckOpenKillsEverySwitchInTheLine) {
  LineCorrelated::Params p;
  p.colStuckOpenRate = 0.5;
  const LineCorrelated model(p);
  Rng rng(9);
  const DefectMap map = model.sample(16, 16, rng);
  ASSERT_GT(map.stuckOpenCount(), 0u);
  // Stuck-open cells come only in full columns.
  for (std::size_t c = 0; c < map.cols(); ++c) {
    const bool anyOpen = map.isStuckOpen(0, c);
    for (std::size_t r = 0; r < map.rows(); ++r)
      EXPECT_EQ(map.isStuckOpen(r, c), anyOpen) << "col=" << c << " row=" << r;
  }
}

// --- RadialGradient --------------------------------------------------------

TEST(RadialGradient, EdgeIsDenserThanCenter) {
  RadialGradient::Params p;
  p.centerRate = 0.01;
  p.edgeRate = 0.40;
  const RadialGradient model(p);
  Rng rng(21);
  const DefectMap map = model.sample(128, 128, rng);

  // Compare the central quarter against the outer frame.
  std::size_t center = 0, edge = 0;
  for (std::size_t r = 0; r < 128; ++r) {
    for (std::size_t c = 0; c < 128; ++c) {
      if (map.type(r, c) == DefectType::None) continue;
      if (r >= 48 && r < 80 && c >= 48 && c < 80) ++center;
      if (r < 16 || r >= 112 || c < 16 || c >= 112) ++edge;
    }
  }
  EXPECT_GT(edge, center * 3);
}

TEST(RadialGradient, ClosedShareProducesStuckClosed) {
  RadialGradient::Params p;
  p.centerRate = 0.2;
  p.edgeRate = 0.2;
  p.stuckClosedShare = 0.5;
  const RadialGradient model(p);
  Rng rng(5);
  const DefectMap map = model.sample(48, 48, rng);
  EXPECT_GT(map.stuckOpenCount(), 0u);
  EXPECT_GT(map.stuckClosedCount(), 0u);
}

// --- CompositeModel --------------------------------------------------------

TEST(CompositeModel, UnionsPartsAndClosedDominates) {
  const auto allOpen = std::make_shared<IidBernoulli>(1.0, 0.0);
  const auto allClosed = std::make_shared<IidBernoulli>(0.0, 1.0);
  const CompositeModel model("both", {allOpen, allClosed});
  Rng rng(1);
  const DefectMap map = model.sample(8, 8, rng);
  EXPECT_EQ(map.stuckClosedCount(), 64u);  // closed wins every conflict
  EXPECT_EQ(map.stuckOpenCount(), 0u);
}

TEST(CompositeModel, AtLeastAsDefectiveAsEachPart) {
  const auto iid = std::make_shared<IidBernoulli>(0.05, 0.0);
  ClusteredDefects::Params cp;
  cp.clusterDensity = 1e-3;
  const auto clustered = std::make_shared<ClusteredDefects>(cp);
  const CompositeModel model("mix", {clustered, iid});

  Rng composite(77), partOnly(77);
  const DefectMap whole = model.sample(64, 64, composite);
  // The first part draws from the same stream prefix, so its pattern is a
  // subset of the composite's.
  const DefectMap first = clustered->sample(64, 64, partOnly);
  for (std::size_t r = 0; r < 64; ++r)
    for (std::size_t c = 0; c < 64; ++c)
      if (first.type(r, c) != DefectType::None) {
        EXPECT_NE(whole.type(r, c), DefectType::None) << r << "," << c;
      }
}

TEST(CompositeModel, NestedCompositesDoNotAliasScratch) {
  // Regression: a composite nested as a non-first part used to receive the
  // outer loop's per-thread scratch as its own output buffer and
  // self-overlay, silently discarding all but its last sub-part.
  const auto none = std::make_shared<IidBernoulli>(0.0, 0.0);
  const auto allOpen = std::make_shared<IidBernoulli>(1.0, 0.0);
  const auto inner = std::make_shared<CompositeModel>(
      "inner", std::vector<std::shared_ptr<const DefectModel>>{allOpen, none});
  const CompositeModel outer("outer", {none, inner});
  Rng rng(5);
  const DefectMap map = outer.sample(8, 8, rng);
  EXPECT_EQ(map.stuckOpenCount(), 64u);
}

TEST(CompositeModel, Validation) {
  EXPECT_THROW(CompositeModel("empty", {}), InvalidArgument);
  EXPECT_THROW(CompositeModel("null", {nullptr}), InvalidArgument);
}

// --- DefectMap::overlay (the composite primitive) --------------------------

TEST(DefectMapOverlay, ClosedDominatesOpen) {
  DefectMap a(4, 4), b(4, 4);
  a.setType(1, 2, DefectType::StuckOpen);
  a.setType(0, 0, DefectType::StuckOpen);
  b.setType(1, 2, DefectType::StuckClosed);
  b.setType(3, 3, DefectType::StuckOpen);
  a.overlay(b);
  EXPECT_EQ(a.type(1, 2), DefectType::StuckClosed);
  EXPECT_EQ(a.type(0, 0), DefectType::StuckOpen);
  EXPECT_EQ(a.type(3, 3), DefectType::StuckOpen);
  EXPECT_EQ(a.type(2, 2), DefectType::None);
}

TEST(DefectMapOverlay, RejectsDimensionMismatch) {
  DefectMap a(4, 4), b(4, 5);
  EXPECT_THROW(a.overlay(b), InvalidArgument);
}

// --- Model names ------------------------------------------------------------

TEST(DefectModels, NamesAndDescriptionsAreStable) {
  ClusteredDefects::Params cp;
  LineCorrelated::Params lp;
  RadialGradient::Params gp;
  const auto iid = std::make_shared<IidBernoulli>(0.1, 0.0);
  EXPECT_EQ(iid->name(), "iid");
  EXPECT_EQ(ClusteredDefects(cp).name(), "clustered");
  EXPECT_EQ(LineCorrelated(lp).name(), "lines");
  EXPECT_EQ(RadialGradient(gp).name(), "gradient");
  EXPECT_EQ(CompositeModel("x", {iid}).name(), "composite");
  EXPECT_NE(iid->describe().find("10%"), std::string::npos);
}

}  // namespace
}  // namespace mcx
