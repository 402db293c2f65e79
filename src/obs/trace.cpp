#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>

namespace mcx::obs {

namespace detail {
std::atomic<TraceSink*> traceSinkPtr{nullptr};
}  // namespace detail

namespace {
/// Owns the armed sink; detail::traceSinkPtr is the hot-path view of it.
std::unique_ptr<TraceSink> g_ownedSink;
std::mutex g_armMutex;
}  // namespace

TraceSink::TraceSink(const std::string& path) : out_(path, std::ios::trunc), path_(path) {
  if (!out_.is_open())
    throw std::runtime_error("obs: cannot open trace file '" + path + "'");
  out_ << "[\n";
}

TraceSink::~TraceSink() {
  const std::lock_guard<std::mutex> lock(mutex_);
  out_.flush();
}

void TraceSink::writeComplete(const char* name, double tsMicros, double durMicros,
                              int tid) {
  // Span names are code literals (no quotes/backslashes), so the event is
  // formatted without escaping. One line per event, comma-terminated:
  // chrome://tracing accepts the unterminated JSON array.
  char line[256];
  const int n =
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"%s\",\"cat\":\"mcx\",\"ph\":\"X\",\"ts\":%.3f,"
                    "\"dur\":%.3f,\"pid\":1,\"tid\":%d},",
                    name, tsMicros, durMicros, tid);
  if (n <= 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  out_.write(line, std::min<std::size_t>(static_cast<std::size_t>(n), sizeof(line) - 1));
  out_.put('\n');
}

void TraceSink::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  out_.flush();
}

void armTrace(const std::string& path) {
  auto sink = std::make_unique<TraceSink>(path);  // throws before any unhook
  const std::lock_guard<std::mutex> lock(g_armMutex);
  detail::traceSinkPtr.store(sink.get(), std::memory_order_release);
  g_ownedSink.swap(sink);  // previous sink (if any) flushes + closes here
}

void disarmTrace() {
  // Teardown contract: callers quiesce span-producing threads first (the
  // tests join their workers; the daemon never disarms). The unhook happens
  // before the close so freshly constructed spans go inert immediately.
  const std::lock_guard<std::mutex> lock(g_armMutex);
  detail::traceSinkPtr.store(nullptr, std::memory_order_release);
  g_ownedSink.reset();
}

bool armTraceFromEnv() {
  const char* env = std::getenv("MCX_TRACE");
  if (env != nullptr && env[0] != '\0') {
    try {
      armTrace(env);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mcx: MCX_TRACE ignored: %s\n", e.what());
    }
  }
  return traceArmed();
}

int currentTraceTid() noexcept {
  static std::atomic<int> next{1};
  static thread_local const int mine = next.fetch_add(1, std::memory_order_relaxed);
  return mine;
}

std::uint64_t Span::finish() noexcept {
  if (!active_) return 0;
  active_ = false;
  const std::uint64_t end = Stopwatch::processNanos();
  const std::uint64_t dur = end - startNanos_;
  if (hist_ != nullptr) hist_->record(dur);
  if (TraceSink* sink = traceSink())
    sink->writeComplete(name_, static_cast<double>(startNanos_) / 1e3,
                        static_cast<double>(dur) / 1e3, currentTraceTid());
  return dur;
}

}  // namespace mcx::obs
