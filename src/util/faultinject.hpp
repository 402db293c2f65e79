// mcx::faultinject — compiled-in, env/flag-armed fault injection.
//
// A long-running service's failure behaviour (deadline enforcement, load
// shedding, clean drain) can only be *tested* if failures can be produced
// on demand: synthesis that throws, samples that stall long enough to blow
// a deadline, allocations that fail at admission. Product code calls
// onSite("name") at the few interesting sites; the hook is a single relaxed
// atomic load when nothing is armed (the permanent production state), and
// consults a mutex-guarded plan table when something is.
//
// Arming:
//   - programmatic (tests): faultinject::arm("mc.sample", {Kind::Stall, 5.0});
//   - environment (whole-process, e.g. under the daemon):
//       MCX_FAULTINJECT="circuit.synthesize=throw;mc.sample=stall:5"
//     entries are ';'-separated `site=kind[@<skip>][x<times>]` with kind one
//     of throw | badalloc | stall:<millis>. `@<skip>` lets that many hits
//     pass unharmed first and `x<times>` bounds how often the plan fires —
//     `mc.sample=throw@2x1` fails exactly the third sample. Parsed once on
//     first use; a malformed value aborts start-up loudly (a fault plan
//     that silently doesn't arm would fake test coverage).
//
// Sites compiled into the library:
//   circuit.synthesize — start of every (uncached) circuit build
//   mc.sample          — start of every Monte Carlo sample
//   serve.enqueue      — experiment-service request admission
//   approx.evaluate    — entry of the ApproxMapper rescue path (graded
//                        partial mapping after an inner-mapper failure)
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "util/error.hpp"

namespace mcx {

/// What an armed Throw site raises: a distinct type so tests (and the
/// service's `internal` taxonomy bucket) can tell injected faults apart.
class FaultInjected : public Error {
public:
  explicit FaultInjected(const std::string& what) : Error(what) {}
};

namespace faultinject {

enum class Kind {
  Throw,     ///< throw mcx::FaultInjected
  BadAlloc,  ///< throw std::bad_alloc (the allocation-failure stand-in)
  Stall,     ///< sleep stallMillis (forces deadline misses / slow requests)
};

struct Plan {
  Kind kind = Kind::Throw;
  double stallMillis = 0;
  /// Let this many hits pass unharmed before firing (e.g. fail only the
  /// third synthesis).
  std::uint64_t skip = 0;
  /// Fire at most this many times, then fall dormant (hit counting
  /// continues).
  std::uint64_t times = UINT64_MAX;
  /// Fire with this probability per eligible hit (chaos soaks arm every
  /// site at a few percent instead of deterministically). Draws come from
  /// the registry's seeded RNG — see seed() — so a soak is replayable.
  /// Skipped draws count as hits but not as fires.
  double probability = 1.0;
};

namespace detail {
extern std::atomic<int> armedSites;  ///< fast-path gate
void onSiteSlow(const char* site);
}  // namespace detail

/// The product-code hook: no-op unless some site is armed.
inline void onSite(const char* site) {
  if (detail::armedSites.load(std::memory_order_relaxed) == 0) return;
  detail::onSiteSlow(site);
}

/// Arm @p site with @p plan (replacing any existing plan for the site).
void arm(const std::string& site, const Plan& plan);
/// Disarm one site (hit counts are kept until reset()).
void disarm(const std::string& site);
/// Disarm everything and zero all hit counts (test teardown).
void reset();
/// Times onSite(site) was reached while the registry was active (armed
/// sites only; counts keep accumulating after `times` fires are spent).
std::uint64_t hits(const std::string& site);
/// Times the site's plan actually fired (skip window passed, probability
/// draw succeeded) — the chaos soak's evidence that faults really flowed.
std::uint64_t fired(const std::string& site);

/// Seed the probability-draw RNG (deterministic soak replay). Also honored
/// from MCX_FAULTINJECT_SEED by armFromEnv(). Defaults to a fixed seed, so
/// probabilistic plans are replayable even unseeded.
void seed(std::uint64_t value);

/// Parse and arm a MCX_FAULTINJECT-style spec ("a=throw;b=stall:5@1x2",
/// "mc.sample=throw%3" — `@<skip>` / `x<times>` fill the Plan's skip/times
/// windows, `%<percent>` its firing probability). Throws mcx::ParseError
/// on malformed entries.
void armFromSpec(const std::string& spec);
/// Arm from the MCX_FAULTINJECT environment variable, once per process
/// (subsequent calls are no-ops); seeds the draw RNG from
/// MCX_FAULTINJECT_SEED when set. Called by the daemon at start-up.
void armFromEnv();

}  // namespace faultinject
}  // namespace mcx
