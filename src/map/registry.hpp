// Mapper registry: named mapper presets and JSON option specs.
//
// The string-keyed counterpart of scenario/registry.hpp: every IMapper the
// library ships is constructible from a name ("hba", "ea", "fast-ea", ...)
// or, for non-default options, from a small JSON spec. Together the two
// registries make mapper x scenario x circuit sweeps fully declarative —
// a new experiment is a registration, not a plumbing job.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "map/matching.hpp"
#include "scenario/spec.hpp"

namespace mcx {

struct MapperPreset {
  std::string name;
  std::string summary;
  /// Build the mapper with its default options.
  std::function<std::shared_ptr<const IMapper>()> make;
};

/// All registered presets, in presentation order. Guaranteed to cover every
/// IMapper implementation (hba, ea, fast-ea, greedy, colperm, approx +
/// variants).
const std::vector<MapperPreset>& mapperPresets();

/// Preset lookup by name; nullptr when unknown.
const MapperPreset* findMapperPreset(const std::string& name);

/// Build a mapper from a JSON spec:
///   {"mapper": "hba", "backtracking": false, "sortByCandidates": true}
///   {"mapper": "ea", "munkres": true}
///   {"mapper": "fast-ea"}
///   {"mapper": "greedy"}
///   {"mapper": "colperm", "restarts": 20, "seed": 42, "inner": <spec|name>}
///   {"mapper": "approx", "inner": <spec|name>, "epsilon": 0.05}
///   {"preset": "hba-nobt"}                      // preset reference
///   "hba-nobt"                                  // a string: as makeMapper
/// Numeric members are checked by the shared ranged accessors (spec.hpp):
/// "restarts" an integer in [0, 1e6], "seed" in [0, 2^53], "epsilon" in
/// [0, 1]. Throws mcx::ParseError on malformed or unknown specs; its
/// message starts with "mapper: ".
std::shared_ptr<const IMapper> mapperFromSpec(const SpecValue& spec);

/// Resolve a mapper string: a preset name ("hba") or, when the string
/// starts with '{', a JSON spec (inlineSpec). Throws mcx::ParseError
/// listing the known presets when the name is unknown.
std::shared_ptr<const IMapper> makeMapper(const std::string& nameOrSpec);

}  // namespace mcx
