#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace mcx::obs {

// ---------------------------------------------------------------- Counter

std::size_t Counter::shardIndex() noexcept {
  // Round-robin shard assignment at first touch per thread: consecutive
  // pool workers land on distinct cache lines without hashing ids.
  static std::atomic<std::size_t> next{0};
  static thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return mine;
}

// -------------------------------------------------------------- Histogram

std::size_t Histogram::bucketIndex(std::uint64_t nanos) noexcept {
  if (nanos < kSubBuckets) return static_cast<std::size_t>(nanos);
  const unsigned exp = 63u - static_cast<unsigned>(std::countl_zero(nanos));
  const std::size_t group = exp - kSubBits + 1;
  const std::size_t sub =
      static_cast<std::size_t>(nanos >> (exp - kSubBits)) - kSubBuckets;
  const std::size_t index = (group << kSubBits) + sub;
  return std::min(index, kBuckets - 1);
}

std::uint64_t Histogram::bucketLo(std::size_t index) noexcept {
  if (index < kSubBuckets) return index;
  if (index >= kBuckets - 1) return std::uint64_t{1} << kMaxExp;  // overflow
  const std::size_t group = index >> kSubBits;
  const std::size_t sub = index & (kSubBuckets - 1);
  return static_cast<std::uint64_t>(kSubBuckets + sub) << (group - 1);
}

std::uint64_t Histogram::bucketWidth(std::size_t index) noexcept {
  if (index < kSubBuckets) return 1;
  if (index >= kBuckets - 1) return 0;  // overflow: quantiles use the exact max
  const std::size_t group = index >> kSubBits;
  return std::uint64_t{1} << (group - 1);
}

void Histogram::record(std::uint64_t nanos) noexcept {
  buckets_[bucketIndex(nanos)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(nanos, std::memory_order_relaxed);
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (nanos > seen &&
         !max_.compare_exchange_weak(seen, nanos, std::memory_order_relaxed)) {
  }
}

void Histogram::recordMillis(double millis) noexcept {
  if (!(millis > 0)) {  // negatives and NaN clamp to the zero bucket
    record(0);
    return;
  }
  record(static_cast<std::uint64_t>(millis * 1e6));
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  for (std::size_t i = 0; i < kBuckets; ++i)
    snap.counts[i] = buckets_[i].load(std::memory_order_relaxed);
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  double cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) continue;
    const double next = cum + static_cast<double>(counts[i]);
    if (next >= target) {
      if (i == kBuckets - 1) return static_cast<double>(max);
      const double frac = (target - cum) / static_cast<double>(counts[i]);
      const double value = static_cast<double>(bucketLo(i)) +
                           frac * static_cast<double>(bucketWidth(i));
      return std::min(value, static_cast<double>(max));
    }
    cum = next;
  }
  return static_cast<double>(max);
}

// --------------------------------------------------------------- Registry

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  return *it->second;
}

void Registry::writeJson(JsonWriter& json) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  json.beginObject();
  json.key("counters");
  json.beginObject();
  for (const auto& [name, counter] : counters_) json.field(name, counter->value());
  json.endObject();
  json.key("gauges");
  json.beginObject();
  for (const auto& [name, gauge] : gauges_) json.field(name, gauge->value());
  json.endObject();
  json.key("histograms");
  json.beginObject();
  constexpr double kNsPerMs = 1e6;
  for (const auto& [name, hist] : histograms_) {
    const Histogram::Snapshot snap = hist->snapshot();
    json.key(name);
    json.beginObject();
    json.field("count", snap.count);
    json.field("mean_ms", snap.mean() / kNsPerMs);
    json.field("p50_ms", snap.quantile(0.50) / kNsPerMs);
    json.field("p90_ms", snap.quantile(0.90) / kNsPerMs);
    json.field("p99_ms", snap.quantile(0.99) / kNsPerMs);
    json.field("max_ms", static_cast<double>(snap.max) / kNsPerMs);
    json.endObject();
  }
  json.endObject();
  json.endObject();
}

std::string Registry::toJson(bool pretty) const {
  std::ostringstream out;
  JsonWriter json(out, pretty);
  writeJson(json);
  return out.str();
}

}  // namespace mcx::obs
