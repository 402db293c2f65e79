// mcx::obs — process-wide telemetry primitives.
//
// Three metric kinds, all safe for concurrent mutation without external
// locking (TSan-clean by construction: every shared word is a std::atomic):
//
//   - Counter: monotonic uint64, sharded across cache lines so concurrent
//     increments from the executor pool don't bounce one hot line around.
//     Reads sum the shards — O(kShards), cheap at snapshot frequency.
//   - Gauge: a level (queue depth, in-flight requests, samples/sec). Plain
//     atomic int64 with set/add; reads are instantaneous values.
//   - Histogram: log-linear (HDR-style) latency distribution in NANOSECONDS.
//     kSubBits sub-buckets per power of two bound the relative bucketing
//     error at 2^-kSubBits (12.5%); quantiles interpolate inside the bucket
//     and clamp to the exact (CAS-maintained) max. Fixed footprint, no
//     allocation on the record path.
//
// The Registry maps stable names ("serve.queue_wait", "mc.samples") to
// metrics. Lookup takes a mutex — callers resolve once and keep the
// reference (entries are never removed, so references stay valid for the
// process lifetime). Snapshots serialize every metric to JSON in name
// order; histograms report count/mean/p50/p90/p99/max in milliseconds.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "util/json_writer.hpp"

namespace mcx::obs {

/// Monotonic counter. add() is wait-free: one relaxed fetch_add on a
/// thread-affine, cache-line-aligned shard.
class Counter {
public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[shardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

private:
  static constexpr std::size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  static std::size_t shardIndex() noexcept;

  std::array<Shard, kShards> shards_{};
};

/// Instantaneous level (may go down). set() publishes, add() adjusts.
class Gauge {
public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }

private:
  std::atomic<std::int64_t> value_{0};
};

/// Log-linear latency histogram over uint64 nanoseconds.
///
/// Bucketing: values below 2^kSubBits get unit-width buckets; above, each
/// power-of-two octave splits into 2^kSubBits equal sub-buckets, so any
/// recorded value lands in a bucket whose width is at most 12.5% of its
/// lower bound. Values at or beyond 2^kMaxExp ns (~18 minutes) collapse
/// into one overflow bucket; quantiles falling there report the exact max.
class Histogram {
public:
  static constexpr unsigned kSubBits = 3;
  static constexpr unsigned kSubBuckets = 1u << kSubBits;  // 8
  static constexpr unsigned kMaxExp = 40;                  // 2^40 ns ≈ 18.3 min
  static constexpr std::size_t kGroups = kMaxExp - kSubBits;  // octave groups ≥ 1
  /// Linear group + kGroups octave groups + the overflow bucket.
  static constexpr std::size_t kBuckets = (kGroups + 1) * kSubBuckets + 1;

  void record(std::uint64_t nanos) noexcept;
  void recordMillis(double millis) noexcept;

  /// A consistent-enough copy for reporting (individual loads are relaxed;
  /// counts racing in during the copy may straddle, which is fine for
  /// monitoring output).
  struct Snapshot {
    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;   ///< nanoseconds
    std::uint64_t max = 0;   ///< exact, not bucketed
    /// Quantile in nanoseconds: linear interpolation inside the landing
    /// bucket, clamped to the exact max. q outside [0,1] is clamped.
    double quantile(double q) const;
    double mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }
  };
  Snapshot snapshot() const;

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }

  /// Bucket geometry (exposed for tests).
  static std::size_t bucketIndex(std::uint64_t nanos) noexcept;
  static std::uint64_t bucketLo(std::size_t index) noexcept;
  static std::uint64_t bucketWidth(std::size_t index) noexcept;

private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Named metric registry. Resolution is mutex-guarded; returned references
/// are stable for the process lifetime (entries live in unique_ptrs and are
/// never erased). Typical use: resolve once at construction, mutate lock-free
/// ever after.
class Registry {
public:
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Full snapshot: {"counters":{...},"gauges":{...},"histograms":{...}},
  /// each section sorted by name. Histogram quantiles are reported in
  /// milliseconds (recorded nanoseconds / 1e6).
  void writeJson(JsonWriter& json) const;
  std::string toJson(bool pretty = false) const;

private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace mcx::obs
