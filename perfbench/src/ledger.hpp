// The benchmark's measurement primitives: an in-memory span recorder (one
// lock-free lane per thread) with self-time accounting and Chrome
// trace_event export, tail-aware percentiles, and the seeded Poisson
// arrival schedule of the open-loop load generator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/stopwatch.hpp"

namespace perfbench {

using Nanos = std::uint64_t;

/// The library's process-wide span timebase (the one MCX_TRACE stamps), so
/// benchmark spans and library spans line up in one viewer.
inline Nanos nowNanos() { return mcx::Stopwatch::processNanos(); }

/// CPU time consumed so far by every thread of this process. Unlike wall
/// time it does not grow while a thread waits for a core (host steal time
/// or other tenants' threads), so the end-to-end mc figures are taken on it.
Nanos processCpuNanos();

/// Moves the calling thread round-robin over the CPUs it may run on, and
/// restores its CPU mask on destruction. On a shared host the cores differ
/// in speed from minute to minute (other tenants on the same physical
/// core): a single-threaded run then averages over every core, as a run on
/// all lanes does, instead of reading whichever core the scheduler kept it on.
class CoreRotation {
public:
  CoreRotation();
  ~CoreRotation();
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  /// Pin the thread to the next allowed CPU.
  void next();
  std::size_t cores() const { return cpus_.size(); }

private:
  std::vector<int> cpus_;
  std::size_t at_ = 0;
};

/// One timed call: name, [start, end), the enclosing span on the same lane
/// (-1 for a root) and the experiment or request it belongs to.
struct Span {
  const char* name = "";
  Nanos start = 0;
  Nanos end = 0;
  std::int32_t parent = -1;
  std::uint64_t op = 0;
};

/// Spans recorded by one thread. Nesting follows the open/close order, so a
/// span's parent is whatever was open on the same lane when it started.
class Lane {
public:
  std::int32_t open(const char* name, std::uint64_t op);
  void close(std::int32_t index);
  const std::vector<Span>& spans() const { return spans_; }

private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span on a lane; a null lane makes it inert (the untraced path).
class Scope {
public:
  Scope(Lane* lane, const char* name, std::uint64_t op)
      : lane_(lane), index_(lane != nullptr ? lane->open(name, op) : -1) {}
  ~Scope() {
    if (lane_ != nullptr) lane_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  Lane* lane_;
  std::int32_t index_;
};

/// Per-name totals over a set of spans.
struct StageTotals {
  std::uint64_t count = 0;
  double selfNanos = 0;   ///< duration minus the part covered by child spans
  double totalNanos = 0;  ///< full durations
};

/// Self time of every span: its duration minus the durations of its direct
/// children (children nest inside their parent on the same lane).
std::vector<double> selfTimes(const std::vector<Span>& spans);

/// Totals by span name over every lane. Spans of ops in @p excludeOps are
/// skipped (layer probes that must not dilute a workload's own stages).
std::map<std::string, StageTotals> stageTotals(const std::vector<Lane>& lanes,
                                               const std::vector<std::uint64_t>& excludeOps = {});

/// Write every lane's spans as Chrome trace_event "complete" events, in the
/// JSON-lines array format of MCX_TRACE (pid 2 keeps them apart from a
/// library trace loaded beside them). Returns false when the file cannot be
/// written.
bool writeChromeTrace(const std::vector<Lane>& lanes, const std::string& path);

/// Nearest-rank quantile (q in [0, 1]) of @p values; 0 for an empty set.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Samples ranked strictly above the nearest-rank q-quantile of n samples.
std::size_t samplesBeyond(std::size_t n, double q);

/// The q-quantile when at least @p minBeyond samples lie beyond it, so a
/// tail percentile is never read off a handful of points; nullopt otherwise.
std::optional<double> tailQuantile(const std::vector<double>& values, double q,
                                   std::size_t minBeyond = 10);

/// Median, over consecutive windows of @p window values (the remainder
/// joins the last window), of each window's q-quantile. A slow host episode
/// that covers a minority of the windows leaves it unmoved, unlike one
/// quantile over the whole run. Falls back to quantile() when there are
/// fewer than @p window values.
double windowedQuantile(const std::vector<double>& values, std::size_t window, double q);

/// Rates over consecutive slices of at least @p sliceSeconds. Events (at
/// @p times, seconds from the phase start, each worth @p amounts) are taken
/// in time order; a slice closes at its first event @p sliceSeconds or more
/// after the previous close, and its rate is its summed amounts over that
/// exact span. Events after the last close are not counted; when no slice
/// closes, the one rate is the phase total over @p totalSeconds.
std::vector<double> sliceRates(const std::vector<double>& times,
                               const std::vector<double>& amounts, double sliceSeconds,
                               double totalSeconds);

/// Open-loop arrival schedule: @p n send offsets in seconds from the start
/// of the phase, with exponential gaps at @p ratePerSecond drawn from a
/// stream seeded by @p seed. Identical seeds give identical schedules.
std::vector<double> poissonSchedule(std::uint64_t seed, double ratePerSecond, std::size_t n);

}  // namespace perfbench
