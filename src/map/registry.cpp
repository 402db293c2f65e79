#include "map/registry.hpp"

#include "approx/approx_mapper.hpp"
#include "map/column_permutation_mapper.hpp"
#include "map/exact_mapper.hpp"
#include "map/fast_exact_mapper.hpp"
#include "map/greedy_mapper.hpp"
#include "map/hybrid_mapper.hpp"
#include "util/error.hpp"

namespace mcx {

namespace {

/// The optional "inner" member of a wrapping mapper (approx, colperm): a
/// preset name or a nested spec; null (the wrapper's default) when absent.
std::shared_ptr<const IMapper> innerFromSpec(const SpecValue& spec) {
  const SpecValue* inner = spec.find("inner");
  return inner == nullptr ? nullptr : mapperFromSpec(*inner);
}

std::string knownPresetNames() {
  std::string known;
  for (const MapperPreset& p : mapperPresets()) {
    if (!known.empty()) known += ", ";
    known += p.name;
  }
  return known;
}

}  // namespace

const std::vector<MapperPreset>& mapperPresets() {
  static const std::vector<MapperPreset> presets = {
      {"hba", "the paper's hybrid algorithm (Algorithm 1) with backtracking",
       [] { return std::make_shared<HybridMapper>(); }},
      {"hba-nobt", "HBA without phase-1 backtracking (ablation A3)",
       [] {
         HybridMapperOptions opts;
         opts.backtracking = false;
         return std::make_shared<HybridMapper>(opts);
       }},
      {"hba-paper", "HBA with the paper's exact top-to-bottom greedy order",
       [] {
         HybridMapperOptions opts;
         opts.sortByCandidates = false;
         return std::make_shared<HybridMapper>(opts);
       }},
      {"ea", "exact algorithm via the Hopcroft-Karp feasibility fast path",
       [] { return std::make_shared<ExactMapper>(); }},
      {"ea-munkres", "the paper's exact algorithm with the O(n^3) Munkres solver",
       [] {
         ExactMapperOptions opts;
         opts.useMunkres = true;
         return std::make_shared<ExactMapper>(opts);
       }},
      {"fast-ea", "exact feasibility as one maximum bipartite matching",
       [] { return std::make_shared<FastExactMapper>(); }},
      {"greedy", "first-fit baseline: no backtracking, no assignment step",
       [] { return std::make_shared<GreedyMapper>(); }},
      {"colperm", "input-column permutation search around an inner HBA",
       [] { return std::make_shared<ColumnPermutationMapper>(); }},
      {"approx",
       "graded mapper: exact inner attempt, then sacrifice lowest-weight cubes "
       "within an error budget; spec: {\"mapper\":\"approx\",\"inner\":\"fast-ea\","
       "\"epsilon\":1.0}",
       [] { return std::make_shared<ApproxMapper>(); }},
  };
  return presets;
}

const MapperPreset* findMapperPreset(const std::string& name) {
  for (const MapperPreset& preset : mapperPresets())
    if (preset.name == name) return &preset;
  return nullptr;
}

std::shared_ptr<const IMapper> mapperFromSpec(const SpecValue& spec) {
  if (spec.kind == SpecValue::Kind::String) return makeMapper(spec.string);
  if (!spec.isObject())
    throw ParseError("mapper spec: expected a preset name or a JSON object");

  if (const SpecValue* preset = spec.find("preset")) {
    requireOnlyKeys(spec, "mapper spec", {"preset"});
    if (preset->kind != SpecValue::Kind::String)
      throw ParseError("mapper spec: \"preset\" must be a string");
    const MapperPreset* found = findMapperPreset(preset->string);
    if (found == nullptr)
      throw ParseError("mapper spec: unknown preset \"" + preset->string + "\"");
    return found->make();
  }

  const std::string mapper = spec.stringOr("mapper", "");
  if (mapper == "hba") {
    requireOnlyKeys(spec, "mapper spec", {"mapper", "backtracking", "sortByCandidates"});
    HybridMapperOptions opts;
    opts.backtracking = spec.boolOr("backtracking", opts.backtracking);
    opts.sortByCandidates = spec.boolOr("sortByCandidates", opts.sortByCandidates);
    return std::make_shared<HybridMapper>(opts);
  }
  if (mapper == "ea") {
    requireOnlyKeys(spec, "mapper spec", {"mapper", "munkres"});
    ExactMapperOptions opts;
    opts.useMunkres = spec.boolOr("munkres", opts.useMunkres);
    return std::make_shared<ExactMapper>(opts);
  }
  if (mapper == "fast-ea") {
    requireOnlyKeys(spec, "mapper spec", {"mapper"});
    return std::make_shared<FastExactMapper>();
  }
  if (mapper == "greedy") {
    requireOnlyKeys(spec, "mapper spec", {"mapper"});
    return std::make_shared<GreedyMapper>();
  }
  if (mapper == "approx") {
    requireOnlyKeys(spec, "mapper spec", {"mapper", "inner", "epsilon"});
    ApproxMapperOptions opts;
    opts.epsilon = spec.numberOr("epsilon", opts.epsilon, 0.0, 1.0);
    return std::make_shared<ApproxMapper>(opts, innerFromSpec(spec));
  }
  if (mapper == "colperm") {
    requireOnlyKeys(spec, "mapper spec", {"mapper", "restarts", "seed", "inner"});
    ColumnPermutationOptions opts;
    opts.restarts = spec.integerOr("restarts", opts.restarts, 0, 1000000);
    opts.seed = spec.integerOr("seed", opts.seed, 0, kMaxExactSpecInteger);
    return std::make_shared<ColumnPermutationMapper>(opts, innerFromSpec(spec));
  }
  throw ParseError("mapper spec: unknown mapper \"" + mapper + "\"");
}

std::shared_ptr<const IMapper> makeMapper(const std::string& nameOrSpec) {
  if (const std::optional<SpecValue> spec = inlineSpec(nameOrSpec)) return mapperFromSpec(*spec);

  const MapperPreset* preset = findMapperPreset(nameOrSpec);
  if (preset == nullptr)
    throw ParseError("unknown mapper \"" + nameOrSpec + "\" (known presets: " +
                     knownPresetNames() + "; or pass a JSON spec)");
  return preset->make();
}

}  // namespace mcx
