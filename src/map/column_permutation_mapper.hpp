// ColumnPermutationMapper: extension beyond the paper's Algorithm 1, and the
// one column-assignment mapper.
//
// The crossbar geometry fixes which columns carry which signals only up to a
// renaming of the input variables: input variable v can be routed to any
// input column pair (x_p, !x_p) by the CMOS controller (Fig. 7(b) of the
// paper silently applies such a renaming: its valid mapping lists the input
// columns as x3 x2 x1). On a crossbar with spare pairs (the paper's Section
// VI future work; MappingContext::spares) the same choice lets spare pairs
// absorb dead or poisoned columns. The mapper embeds the FM into the CM's
// column space (FunctionMatrix::embedded) and runs an inner row mapper: first
// on the least-defective pairs in ascending order (the identity without spare
// pairs), then on randomized restarts that shuffle the input pairs (and any
// spare output pairs) and take the first ones.
#pragma once

#include <memory>

#include "map/hybrid_mapper.hpp"
#include "map/matching.hpp"
#include "util/rng.hpp"

namespace mcx {

struct ColumnPermutationOptions {
  /// Number of randomized embeddings tried after the first one.
  std::size_t restarts = 20;
  std::uint64_t seed = 0x5eed;
};

class ColumnPermutationMapper final : public IMapper {
public:
  explicit ColumnPermutationMapper(ColumnPermutationOptions opts = {},
                                   std::shared_ptr<const IMapper> inner = nullptr)
      : opts_(opts),
        inner_(inner ? std::move(inner) : std::make_shared<HybridMapper>()) {}

  std::string name() const override { return "ColPerm+" + inner_->name(); }
  /// A CM with no spare pairs (use the context overload for a wider one).
  MappingResult map(const FunctionMatrix& fm, const BitMatrix& cm) const override;
  /// @p cm must have redundantDims(fm, ctx.spares()) columns.
  MappingResult map(const FunctionMatrix& fm, const BitMatrix& cm,
                    MappingContext& ctx) const override;

private:
  ColumnPermutationOptions opts_;
  std::shared_ptr<const IMapper> inner_;
};

}  // namespace mcx
