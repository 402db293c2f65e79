#include "ledger.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/rng.hpp"

namespace perfbench {

Nanos processCpuNanos() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<Nanos>(ts.tv_sec) * 1000000000ull + static_cast<Nanos>(ts.tv_nsec);
}

namespace {

bool pinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace

CoreRotation::CoreRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
}

CoreRotation::~CoreRotation() {
  if (!cpus_.empty()) (void)pinTo(cpus_);
}

void CoreRotation::next() {
  if (cpus_.size() < 2) return;
  (void)pinTo({cpus_[at_]});
  at_ = (at_ + 1) % cpus_.size();
}

std::int32_t Lane::open(const char* name, std::uint64_t op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = stack_.empty() ? -1 : stack_.back();
  const auto index = static_cast<std::int32_t>(spans_.size());
  stack_.push_back(index);
  span.start = nowNanos();
  spans_.push_back(span);
  return index;
}

void Lane::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end = nowNanos();
  // Scopes close in reverse order of opening; pop down to (and including)
  // this span so a lane stays consistent even if a scope is unwound early.
  while (!stack_.empty()) {
    const std::int32_t top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

std::vector<double> selfTimes(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = static_cast<double>(spans[i].end - spans[i].start);
  for (const Span& span : spans)
    if (span.parent >= 0)
      self[static_cast<std::size_t>(span.parent)] -= static_cast<double>(span.end - span.start);
  return self;
}

std::map<std::string, StageTotals> stageTotals(const std::vector<Lane>& lanes,
                                               const std::vector<std::uint64_t>& excludeOps) {
  std::map<std::string, StageTotals> totals;
  for (const Lane& lane : lanes) {
    const std::vector<Span>& spans = lane.spans();
    const std::vector<double> self = selfTimes(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (std::find(excludeOps.begin(), excludeOps.end(), spans[i].op) != excludeOps.end())
        continue;
      StageTotals& t = totals[spans[i].name];
      ++t.count;
      t.selfNanos += self[i];
      t.totalNanos += static_cast<double>(spans[i].end - spans[i].start);
    }
  }
  return totals;
}

bool writeChromeTrace(const std::vector<Lane>& lanes, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "[\n";
  char line[320];
  for (std::size_t tid = 0; tid < lanes.size(); ++tid) {
    for (const Span& span : lanes[tid].spans()) {
      const int n = std::snprintf(
          line, sizeof(line),
          "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
          "\"pid\":2,\"tid\":%zu,\"args\":{\"op\":%llu,\"parent\":%d}},\n",
          span.name, static_cast<double>(span.start) / 1e3,
          static_cast<double>(span.end - span.start) / 1e3, tid + 1,
          static_cast<unsigned long long>(span.op), static_cast<int>(span.parent));
      if (n > 0) out.write(line, std::min<std::size_t>(static_cast<std::size_t>(n), sizeof(line) - 1));
    }
  }
  return static_cast<bool>(out);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return values[std::min(rank, values.size()) - 1];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::size_t samplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n))));
  return n - std::min(rank, n);
}

std::optional<double> tailQuantile(const std::vector<double>& values, double q,
                                   std::size_t minBeyond) {
  if (samplesBeyond(values.size(), q) < minBeyond) return std::nullopt;
  return quantile(values, q);
}

double windowedQuantile(const std::vector<double>& values, std::size_t window, double q) {
  const std::size_t windows = window == 0 ? 0 : values.size() / window;
  if (windows < 2) return quantile(values, q);
  std::vector<double> perWindow;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto last = w + 1 == windows ? values.end() : first + static_cast<std::ptrdiff_t>(window);
    perWindow.push_back(quantile(std::vector<double>(first, last), q));
  }
  return median(perWindow);
}

std::vector<double> sliceRates(const std::vector<double>& times,
                               const std::vector<double>& amounts, double sliceSeconds,
                               double totalSeconds) {
  std::vector<std::size_t> order(times.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) { return times[a] < times[b]; });
  std::vector<double> rates;
  double opened = 0;
  double sum = 0;
  double total = 0;
  for (const std::size_t i : order) {
    sum += amounts[i];
    total += amounts[i];
    if (times[i] - opened >= sliceSeconds) {
      rates.push_back(sum / (times[i] - opened));
      opened = times[i];
      sum = 0;
    }
  }
  if (rates.empty() && totalSeconds > 0) rates.push_back(total / totalSeconds);
  return rates;
}

std::vector<double> poissonSchedule(std::uint64_t seed, double ratePerSecond, std::size_t n) {
  mcx::Rng rng(seed ^ 0x5eedf00dcafe0001ull);
  std::vector<double> due;
  due.reserve(n);
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log1p(-rng.uniform()) / ratePerSecond;
    due.push_back(t);
  }
  return due;
}

}  // namespace perfbench
