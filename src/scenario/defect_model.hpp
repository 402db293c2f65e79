// Pluggable defect-pattern generators (the scenario subsystem).
//
// The paper's yield experiments (Tables II-III) draw every crosspoint
// independently at a flat rate. Real nano-crossbar fabrication also
// produces clustered defects (process particles, Section IV's "random
// discrete" assumption relaxed), line-correlated failures (broken or
// shorted nanowires — the stuck-closed line-poisoning case of
// src/sim/crossbar_sim.cpp applied to whole lines), and radial rate
// gradients (wafer-edge effects). A DefectModel turns any such pattern
// into a DefectMap without the Monte Carlo engine caring which world it is
// sampling from; IidBernoulli reproduces the paper's model bit-identically.
//
// Determinism contract: generate() must consume randomness only from the
// passed Rng, in a draw order that depends solely on (rows, cols) and the
// model's own parameters — never on global state or thread identity. The
// engine pre-splits one RNG stream per sample, so any conforming model
// keeps experiment results bit-identical at any thread count.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "xbar/defects.hpp"

namespace mcx {

class DefectModel {
public:
  virtual ~DefectModel() = default;

  /// Short stable identifier of the model family ("iid", "clustered", ...).
  virtual std::string name() const = 0;
  /// Human-readable parameter summary ("iid(open=10%, closed=0%)").
  virtual std::string describe() const = 0;

  /// Fill @p out (reshaped to rows x cols) with a fresh defect pattern.
  virtual void generate(std::size_t rows, std::size_t cols, Rng& rng,
                        DefectMap& out) const = 0;

  /// The number of samples generateBlock() draws side by side (1 unless
  /// the model draws several streams at once). The engine groups up to
  /// this many samples per block; any k is still valid.
  virtual std::size_t blockWidth() const { return 1; }

  /// k samples at once: outs[i] and rngs[i] must end exactly as
  /// generate(rows, cols, rngs[i], outs[i]) leaves them, for every i < k,
  /// so a block changes no draw, bit or trailing stream state. The
  /// default loops over generate().
  virtual void generateBlock(std::size_t rows, std::size_t cols, Rng* rngs, DefectMap* outs,
                             std::size_t k) const;

  // Kept only for perfbench; delete in the next benchmark PR.
  void generateTracked(std::size_t r, std::size_t c, Rng& rng, DefectMap& out, DirtyRows&) const {
    generate(r, c, rng, out);
  }

  /// Convenience wrapper over generate() for non-scratch-arena callers.
  DefectMap sample(std::size_t rows, std::size_t cols, Rng& rng) const;
};

/// The paper's model: every crosspoint fails independently at flat
/// stuck-open / stuck-closed rates, one uniform draw per crosspoint in
/// row-major order. The legacy anchor: this draw sequence is the one every
/// committed legacy-rate bench count was measured on. The sweep compares
/// each raw draw x against integer thresholds: `uniform() < p` holds
/// exactly when (x >> 11) < ceil(p * 2^53) (UniformThreshold, util/rng.hpp),
/// so it reproduces the per-bit double-compare loop bit for bit while
/// gathering 64 crosspoints per register word and storing each matrix word
/// once. A block runs one stream per 64-bit vector lane (RngLanes,
/// util/rng.hpp): blockWidth() is 8 where the target has AVX-512F and 4
/// otherwise, and each sample still gets its own stream's draws in order.
class IidBernoulli : public DefectModel {
public:
  explicit IidBernoulli(double stuckOpenRate, double stuckClosedRate = 0.0);

  std::string name() const override { return "iid"; }
  std::string describe() const override;
  void generate(std::size_t rows, std::size_t cols, Rng& rng, DefectMap& out) const override;
  std::size_t blockWidth() const override;
  void generateBlock(std::size_t rows, std::size_t cols, Rng* rngs, DefectMap* outs,
                     std::size_t k) const override;

  double stuckOpenRate() const { return open_; }
  double stuckClosedRate() const { return closed_; }

private:
  double open_;
  double closed_;
};

/// The scenario label of an IidBernoulli declared by its bare rate pair
/// (the builder's legacyRates, a serve request without "scenario", the
/// benches' legacy rows): the wire string the committed bench JSONs key on.
inline const std::string kLegacyScenario = "iid (legacy rates)";

/// The same i.i.d. per-crosspoint distribution as IidBernoulli, sampled in
/// O(defects) instead of O(crosspoints): one exact Binomial(area, rate) draw
/// fixes the defect count, then each defect lands on a uniformly drawn
/// still-functional crosspoint (rejection on collisions) and picks its type
/// with one conditional draw when both rates are nonzero. Statistically
/// identical to the parent — conditioning an i.i.d. field on its defect
/// count makes the defect sites a uniform distinct sample — but a different
/// random stream, so it is NOT draw-for-draw compatible with the paper's
/// sampler; the legacy path stays the bit-identity regression anchor.
/// Above kDenseRateCutoff the rejection loop stops paying and the model
/// falls back to the parent's dense draw-for-draw sweep, blocks included;
/// below it the block width is 1.
class SparseIidBernoulli final : public IidBernoulli {
public:
  /// Total defect rate above which the dense sweep is used instead.
  static constexpr double kDenseRateCutoff = 0.25;

  explicit SparseIidBernoulli(double stuckOpenRate, double stuckClosedRate = 0.0);

  std::string name() const override { return "iid-sparse"; }
  std::string describe() const override;
  void generate(std::size_t rows, std::size_t cols, Rng& rng, DefectMap& out) const override;
  std::size_t blockWidth() const override;
  void generateBlock(std::size_t rows, std::size_t cols, Rng* rngs, DefectMap* outs,
                     std::size_t k) const override;

private:
  bool dense() const { return stuckOpenRate() + stuckClosedRate() > kDenseRateCutoff; }
};

/// Particle-induced clusters: seed points land uniformly (expected
/// clusterDensity * rows * cols of them) and each grows by a random walk
/// whose length is geometric in `spread` (expected cluster size
/// 1 / (1 - spread) visited cells). Each visited crosspoint is stuck-closed
/// with probability stuckClosedShare, else stuck-open; stuck-closed is
/// never downgraded by a later visit.
class ClusteredDefects final : public DefectModel {
public:
  struct Params {
    double clusterDensity = 5e-4;   ///< expected cluster seeds per crosspoint
    double spread = 0.85;           ///< per-step walk continuation probability
    double stuckClosedShare = 0.0;  ///< share of clustered cells stuck-closed
  };

  explicit ClusteredDefects(Params params);

  std::string name() const override { return "clustered"; }
  std::string describe() const override;
  void generate(std::size_t rows, std::size_t cols, Rng& rng, DefectMap& out) const override;

  const Params& params() const { return params_; }

private:
  Params params_;
};

/// Whole-line failures. Each horizontal line independently fails
/// stuck-closed with rowStuckClosedRate — realized as one stuck-closed
/// crosspoint at a uniform column, which poisons the row (and, per the
/// fabric semantics of Section IV-A, the unlucky column too). Each line can
/// instead fail stuck-open (every crosspoint in it stuck-open: the line's
/// switches are all unusable but no poisoning spreads). Vertical lines get
/// the symmetric treatment. Draw order: rows (open then closed), then
/// columns (open then closed).
class LineCorrelated final : public DefectModel {
public:
  struct Params {
    double rowStuckClosedRate = 0.0;
    double colStuckClosedRate = 0.0;
    double rowStuckOpenRate = 0.0;
    double colStuckOpenRate = 0.0;
  };

  explicit LineCorrelated(Params params);

  std::string name() const override { return "lines"; }
  std::string describe() const override;
  void generate(std::size_t rows, std::size_t cols, Rng& rng, DefectMap& out) const override;

  const Params& params() const { return params_; }

private:
  Params params_;
};

/// Wafer-edge gradient: the per-crosspoint defect rate ramps linearly with
/// normalized radial distance from the array center (the farthest corner is
/// distance 1), from centerRate to edgeRate. A stuckClosedShare of defects
/// are stuck-closed. One uniform draw per crosspoint, like IidBernoulli.
class RadialGradient final : public DefectModel {
public:
  struct Params {
    double centerRate = 0.01;
    double edgeRate = 0.20;
    double stuckClosedShare = 0.0;
  };

  explicit RadialGradient(Params params);

  std::string name() const override { return "gradient"; }
  std::string describe() const override;
  void generate(std::size_t rows, std::size_t cols, Rng& rng, DefectMap& out) const override;

  const Params& params() const { return params_; }

private:
  Params params_;
};

/// Union of sub-models: each part generates into a scratch map and the
/// results are overlaid (stuck-closed dominates stuck-open on conflicts).
/// The canonical use is layering an i.i.d. "upset" layer — the transient
/// fault pattern of src/sim/transient_faults frozen for one sample — over a
/// correlated permanent-defect model. Parts draw in order from the same
/// stream, so the composite obeys the determinism contract iff its parts do.
class CompositeModel final : public DefectModel {
public:
  CompositeModel(std::string label,
                 std::vector<std::shared_ptr<const DefectModel>> parts);

  std::string name() const override { return "composite"; }
  std::string describe() const override;
  void generate(std::size_t rows, std::size_t cols, Rng& rng, DefectMap& out) const override;

  const std::vector<std::shared_ptr<const DefectModel>>& parts() const { return parts_; }

private:
  std::string label_;
  std::vector<std::shared_ptr<const DefectModel>> parts_;
};

}  // namespace mcx
