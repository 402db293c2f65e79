// mcx::obs tracing — named, nested timed sections with optional export as
// Chrome trace_event JSON-lines (load the file at chrome://tracing or
// https://ui.perfetto.dev).
//
// Span is the only instrumentation primitive: an RAII section that, on
// destruction, (a) feeds its duration into an optional Histogram and
// (b) writes one Chrome "complete" event ("ph":"X") to the armed TraceSink.
// When neither is wanted — no histogram attached AND no sink armed — the
// constructor is a single relaxed atomic load and the clock is never read,
// so leaving spans compiled into the MC hot path costs ~nothing.
//
// Arming is process-global and monotonic: armTrace(path) opens the sink and
// flips an atomic pointer that every Span polls; disarmTrace() unhooks the
// pointer first and only then closes the file (spans that already loaded
// the pointer finish their writes under the sink's own lock — see
// disarmTrace() for the teardown contract). MCX_TRACE=<path> arms from the
// environment; both mcx_serve and mcx_bench call armTraceFromEnv() at
// startup, so any workload can be traced without code changes.
//
// Nesting is positional, Chrome-style: events carry begin timestamp +
// duration on a per-thread lane (small sequential tids), and the viewer
// reconstructs the stack from containment. No parent ids are recorded.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "util/stopwatch.hpp"

namespace mcx::obs {

/// Serialized writer of Chrome trace_event JSON-lines. Output begins with
/// "[" and then emits one `{...},` event per line; Chrome's trace loader
/// accepts the unterminated array, so a crashed process still leaves a
/// loadable trace.
class TraceSink {
public:
  /// Opens @p path for writing (truncates). Throws std::runtime_error on
  /// failure.
  explicit TraceSink(const std::string& path);
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// One "complete" event: name, category, microsecond begin + duration,
  /// small per-thread lane id.
  void writeComplete(const char* name, double tsMicros, double durMicros, int tid);

  void flush();
  const std::string& path() const { return path_; }

private:
  std::mutex mutex_;
  std::ofstream out_;
  std::string path_;
};

namespace detail {
extern std::atomic<TraceSink*> traceSinkPtr;
}  // namespace detail

/// The disarmed-path gate: one relaxed load.
inline bool traceArmed() noexcept {
  return detail::traceSinkPtr.load(std::memory_order_relaxed) != nullptr;
}
inline TraceSink* traceSink() noexcept {
  return detail::traceSinkPtr.load(std::memory_order_acquire);
}

/// Opens @p path and arms tracing process-wide. Throws on open failure.
/// Replaces any previously armed sink.
void armTrace(const std::string& path);
/// Unhooks and closes the armed sink (tests; the daemon just exits).
void disarmTrace();
/// Arms from MCX_TRACE=<path> when set and non-empty. Returns true if a
/// sink is armed after the call. Invalid paths report to stderr and leave
/// tracing off rather than killing the process.
bool armTraceFromEnv();

/// Small sequential id for the calling thread (trace lane).
int currentTraceTid() noexcept;

/// RAII timed section. @p hist (optional) receives the duration in
/// nanoseconds; the armed TraceSink (if any) receives a Chrome complete
/// event. With neither, construction and destruction touch no clock.
class Span {
public:
  explicit Span(const char* name, Histogram* hist = nullptr) noexcept
      : name_(name), hist_(hist) {
    if (hist_ != nullptr || traceArmed()) {
      active_ = true;
      startNanos_ = Stopwatch::processNanos();
    }
  }
  ~Span() { finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the section early (idempotent; the destructor becomes a no-op).
  /// Returns the duration in nanoseconds (0 when the span was inert).
  std::uint64_t finish() noexcept;

private:
  const char* name_;
  Histogram* hist_;
  std::uint64_t startNanos_ = 0;
  bool active_ = false;
};

}  // namespace mcx::obs
