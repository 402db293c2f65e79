// mcx_serve — the deadline-aware experiment daemon.
//
// Speaks JSON lines: one experiment request per line in, one response line
// per request out (see src/serve/request.hpp for the schema and
// src/serve/error.hpp for the error taxonomy). Two transports:
//
//   mcx_serve                      stdin -> stdout (responses), counters on
//                                  stderr at exit
//   mcx_serve --socket /tmp/mcx   unix stream socket; each connection gets
//                                  its own responses back
//
// Robustness contract:
//   - requests are validated eagerly; malformed input gets a structured
//     `parse` error, never a crash
//   - the admission queue is bounded (--queue-depth); over capacity the
//     request is shed immediately with `overloaded`
//   - SIGINT/SIGTERM drain gracefully: stop admitting, finish in-flight
//     work, flush the counters JSON to stderr, exit 0
//   - MCX_FAULTINJECT arms the fault-injection sites (testing only)
//
// Observability:
//   - --metrics-interval <s> flushes the full telemetry snapshot (service
//     counters + registry histograms) to stderr periodically, one line
//     prefixed "mcx_serve: metrics "
//   - --health-file <path> heartbeats the liveness snapshot (status,
//     queue/in-flight load, cache bytes, RSS) to the file atomically
//     (write-temp-then-rename) every --health-interval seconds; the
//     `{"type":"health"}` protocol request returns the same payload inline
//   - MCX_TRACE=<path> arms Chrome trace_event output (chrome://tracing)
//
// Resource governance (all off by default — see --help):
//   --cache-budget-mb bounds the global circuit cache (LRU eviction),
//   --queue-cost-budget / --client-cost-rate replace count-only admission
//   with cost-aware shedding (cost = samples x learned circuit area; socket
//   connections are distinct clients), --degrade trims deadline-carrying
//   requests' sample counts to fit their remaining budget, and
//   --watchdog-factor flags requests stuck past N x the p99 stage latency.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <condition_variable>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "circuit/cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "util/arg_parser.hpp"
#include "util/faultinject.hpp"
#include "util/stopwatch.hpp"

namespace {

// Self-pipe: the signal handler writes one byte; the poll loop wakes up and
// begins the drain. Async-signal-safe (write only).
int gSignalPipe[2] = {-1, -1};
std::atomic<int> gSignal{0};

void onSignal(int sig) {
  gSignal.store(sig, std::memory_order_relaxed);
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(gSignalPipe[1], &byte, 1);
}

bool installSignalHandlers() {
  if (::pipe(gSignalPipe) != 0) return false;
  ::fcntl(gSignalPipe[0], F_SETFL, O_NONBLOCK);
  ::fcntl(gSignalPipe[1], F_SETFL, O_NONBLOCK);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = onSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked reads return EINTR and re-poll
  if (::sigaction(SIGINT, &sa, nullptr) != 0) return false;
  if (::sigaction(SIGTERM, &sa, nullptr) != 0) return false;
  ::signal(SIGPIPE, SIG_IGN);  // a client hanging up must not kill the daemon
  return true;
}

/// How long a response write may wait for a client to drain its socket
/// buffer before the response is dropped. Client fds are non-blocking, so
/// this bounds the worst case a stuck (connected but not reading) client
/// can cost a request thread — it can never wedge the service.
constexpr int kWriteTimeoutMillis = 2000;

/// Append a newline and write the whole buffer to the non-blocking @p fd,
/// retrying partial writes and polling for writability within the timeout
/// budget. Returns false when the peer is gone or too slow to drain (the
/// response is dropped; the experiment still ran and the counters still
/// account for it).
bool writeLine(int fd, const std::string& line) {
  std::string buffer = line;
  buffer.push_back('\n');
  std::size_t off = 0;
  const mcx::Stopwatch elapsed;  // budget clock for the whole response write
  while (off < buffer.size()) {
    const ssize_t n = ::write(fd, buffer.data() + off, buffer.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int leftMillis = kWriteTimeoutMillis - static_cast<int>(elapsed.millis());
      if (leftMillis <= 0) return false;  // stuck client: drop, don't wedge
      struct pollfd pfd = {fd, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, leftMillis);
      if (ready > 0 && (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) == 0) continue;
      if (ready < 0 && errno == EINTR) continue;
      return false;
    }
    return false;
  }
  return true;
}

/// Split complete lines out of a connection's accumulation buffer and submit
/// each. Blank lines are ignored (keep-alives / trailing newlines).
///
/// Streaming oversized-line guard: an unterminated line used to accumulate
/// without bound until its newline finally arrived. Instead, the moment the
/// partial line exceeds the parse limit it is submitted as-is — producing
/// the typed `parse` error with the observed length — and the connection
/// switches to discard-until-newline, so a misbehaving client's memory cost
/// is bounded by the limit, not by its patience.
void submitLines(mcx::serve::ExperimentService& service, std::string& buffer,
                 const mcx::serve::ExperimentService::Sink& sink,
                 const std::string& client, bool& discarding) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = buffer.find('\n', start);
    if (nl == std::string::npos) break;
    std::string line = buffer.substr(start, nl - start);
    start = nl + 1;
    if (discarding) {  // tail of an oversized line already answered
      discarding = false;
      continue;
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    service.submit(line, sink, client);
  }
  buffer.erase(0, start);
  if (discarding) {
    buffer.clear();  // still inside the oversized line: keep dropping
  } else if (buffer.size() > service.options().limits.maxLineBytes) {
    service.submit(buffer, sink, client);
    buffer.clear();
    discarding = true;
  }
}

/// stdin -> stdout mode. Returns when stdin hits EOF or a signal arrives.
void runStdinLoop(mcx::serve::ExperimentService& service) {
  std::string buffer;
  bool discarding = false;
  const std::string client = "stdin";
  char chunk[4096];
  for (;;) {
    struct pollfd fds[2] = {{STDIN_FILENO, POLLIN, 0}, {gSignalPipe[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // SIGINT/SIGTERM: start the drain
    if (fds[0].revents == 0) continue;
    const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {  // EOF: submit any unterminated trailing line, then drain
      if (!buffer.empty()) buffer.push_back('\n');
      submitLines(service, buffer, nullptr, client, discarding);
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    submitLines(service, buffer, nullptr, client, discarding);
  }
}

/// Write end of a connection, shared between the event loop (which closes
/// it) and the service's request threads (which respond on it). The mutex
/// orders responses against close(), so a late response to a hung-up client
/// is dropped instead of racing a reused fd.
struct ConnWriter {
  std::mutex mutex;
  int fd = -1;
  bool closed = false;
  bool broken = false;  ///< a write failed or timed out; stop paying for it

  void write(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (closed || broken) return;
    // A failed write latches the connection broken so a stuck client costs
    // at most one write timeout; the fd itself is closed only by the event
    // loop (via close()), which owns its lifetime.
    if (!writeLine(fd, line)) broken = true;
  }
  void close() {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!closed) ::close(fd);
    closed = true;
  }
};

struct Connection {
  std::string buffer;
  std::string client;       ///< per-connection cost-bucket key
  bool discarding = false;  ///< inside an already-answered oversized line
  std::shared_ptr<ConnWriter> writer = std::make_shared<ConnWriter>();
};

/// Unix-socket mode: a single-threaded accept+read event loop; responses are
/// written back to the originating connection from the service's request
/// threads (serialized per connection).
int runSocketLoop(mcx::serve::ExperimentService& service, const std::string& path) {
  ::unlink(path.c_str());
  const int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd < 0) {
    std::cerr << "mcx_serve: socket: " << std::strerror(errno) << "\n";
    return 1;
  }
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::cerr << "mcx_serve: socket path too long\n";
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(listenFd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listenFd, 16) != 0) {
    std::cerr << "mcx_serve: bind/listen " << path << ": " << std::strerror(errno) << "\n";
    ::close(listenFd);
    return 1;
  }
  std::cerr << "mcx_serve: listening on " << path << "\n";

  std::vector<std::unique_ptr<Connection>> connections;
  std::uint64_t clientSerial = 0;  // distinct cost-bucket key per connection
  char chunk[4096];
  for (;;) {
    std::vector<struct pollfd> fds;
    fds.push_back({gSignalPipe[0], POLLIN, 0});
    fds.push_back({listenFd, POLLIN, 0});
    for (const auto& conn : connections) fds.push_back({conn->writer->fd, POLLIN, 0});

    const int ready = ::poll(fds.data(), fds.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents != 0) break;  // signal: drain and exit

    // fds rows 2..2+polled were built from the pre-accept connection list;
    // a connection admitted below has no pollfd row yet, so the scan must
    // be bounded by this snapshot, never by the (possibly grown) vector.
    const std::size_t polled = connections.size();

    if ((fds[1].revents & POLLIN) != 0) {
      const int fd = ::accept(listenFd, nullptr, nullptr);
      if (fd >= 0) {
        // Non-blocking: response writes poll for writability with a bounded
        // budget (writeLine), so a client that stops reading can never
        // wedge a request thread on a full socket buffer.
        ::fcntl(fd, F_SETFL, O_NONBLOCK);
        auto conn = std::make_unique<Connection>();
        conn->client = "conn-" + std::to_string(++clientSerial);
        conn->writer->fd = fd;
        connections.push_back(std::move(conn));
      }
    }

    for (std::size_t i = 0; i < polled;) {
      Connection& conn = *connections[i];
      const short revents = fds[2 + i].revents;
      bool closed = false;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        const ssize_t n = ::read(conn.writer->fd, chunk, sizeof(chunk));
        if (n > 0) {
          conn.buffer.append(chunk, static_cast<std::size_t>(n));
          const std::shared_ptr<ConnWriter> writer = conn.writer;
          submitLines(
              service, conn.buffer,
              [writer](const std::string& line) { writer->write(line); },
              conn.client, conn.discarding);
        } else if (n == 0 ||
                   (n < 0 && errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)) {
          closed = true;
        }
      }
      if (closed) {
        // In-flight requests for this connection still finish; their late
        // responses are dropped by the ConnWriter's closed latch.
        conn.writer->close();
        connections.erase(connections.begin() + static_cast<std::ptrdiff_t>(i));
        break;  // fds indices are stale after erase; re-poll
      }
      ++i;
    }
  }

  service.drain();
  for (const auto& conn : connections) conn->writer->close();
  ::close(listenFd);
  ::unlink(path.c_str());
  return 0;
}

/// Background stderr flusher for --metrics-interval: one compact snapshot
/// line per tick, stopped promptly (condition variable, not a sleep) when
/// the daemon drains.
class MetricsFlusher {
public:
  MetricsFlusher(mcx::serve::ExperimentService& service, double intervalSeconds)
      : service_(service), intervalSeconds_(intervalSeconds) {
    if (intervalSeconds_ > 0) thread_ = std::thread([this] { loop(); });
  }
  ~MetricsFlusher() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    tick_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (tick_.wait_for(lock, std::chrono::duration<double>(intervalSeconds_),
                         [this] { return stop_; }))
        return;
      lock.unlock();
      // One pre-built string per tick: stderr is unbuffered, and the final
      // counters flush may race this thread — whole-line writes keep both
      // readable.
      std::cerr << ("mcx_serve: metrics " + service_.statsJson(false) + "\n")
                << std::flush;
      lock.lock();
    }
  }

  mcx::serve::ExperimentService& service_;
  double intervalSeconds_;
  std::mutex mutex_;
  std::condition_variable tick_;
  bool stop_ = false;
  std::thread thread_;
};

/// --health-file heartbeat: the liveness snapshot is written to a temp file
/// and renamed over the target, so an external prober (a container liveness
/// probe, a supervisor) always reads a complete JSON document — never a
/// torn write. A final beat lands at shutdown so the last observable status
/// is "draining", and the file is removed on clean exit (a leftover file
/// with a stale mtime = the daemon died uncleanly).
class HealthBeat {
public:
  HealthBeat(mcx::serve::ExperimentService& service, std::string path,
             double intervalSeconds)
      : service_(service), path_(std::move(path)), intervalSeconds_(intervalSeconds) {
    if (!path_.empty() && intervalSeconds_ > 0) {
      beat();  // the file exists as soon as the daemon is serving
      thread_ = std::thread([this] { loop(); });
    }
  }
  ~HealthBeat() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    tick_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
      beat();  // last words: status "draining"
      std::remove(path_.c_str());
    }
  }

private:
  void beat() {
    const std::string tmp = path_ + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      if (!out) return;  // unwritable path: skip the beat, keep serving
      out << service_.healthJson(false) << "\n";
    }
    std::rename(tmp.c_str(), path_.c_str());
  }

  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (tick_.wait_for(lock, std::chrono::duration<double>(intervalSeconds_),
                         [this] { return stop_; }))
        return;
      lock.unlock();
      beat();
      lock.lock();
    }
  }

  mcx::serve::ExperimentService& service_;
  std::string path_;
  double intervalSeconds_;
  std::mutex mutex_;
  std::condition_variable tick_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  mcx::serve::ServiceOptions options;
  std::string socketPath;
  double defaultDeadline = 0;
  double metricsInterval = 0;
  std::size_t maxSamples = options.limits.maxSamples;
  std::size_t maxLineBytes = options.limits.maxLineBytes;
  std::size_t cacheBudgetMb = 0;
  std::string healthFile;
  double healthInterval = 1.0;

  mcx::cli::ArgParser parser(
      "mcx_serve",
      "Deadline-aware experiment service: JSON-lines requests on stdin (or a "
      "unix socket), one JSON response line per request, structured errors, "
      "bounded admission, graceful SIGTERM drain.");
  parser.add("--queue-depth", &options.queueDepth, "N",
             "admitted-but-unstarted requests held before shedding (default 64)");
  parser.add("--request-threads", &options.requestThreads, "N",
             "concurrent request executors (default 1)");
  parser.add("--pool-threads", &options.poolThreads, "N",
             "sample-pool parallelism shared by all requests (0 = hardware)");
  parser.add("--default-deadline-ms", &defaultDeadline, "MS",
             "deadline applied to requests without deadline_ms (0 = none)");
  parser.add("--max-samples", &maxSamples, "N",
             "per-request sample cap enforced at parse time");
  parser.add("--max-line-bytes", &maxLineBytes, "N",
             "longest request line accepted; longer lines get a typed parse "
             "error with the observed length (default 1 MiB)");
  parser.add("--metrics-interval", &metricsInterval, "S",
             "flush the telemetry snapshot to stderr every S seconds (0 = off)");
  parser.add("--health-file", &healthFile, "PATH",
             "heartbeat the health snapshot to PATH (atomic rename; removed "
             "on clean exit)");
  parser.add("--health-interval", &healthInterval, "S",
             "seconds between health-file beats (default 1)");
  parser.add("--cache-budget-mb", &cacheBudgetMb, "MB",
             "bound the shared circuit cache; over budget the least recently "
             "used artifacts are evicted (0 = unbounded)");
  parser.add("--queue-cost-budget", &options.queueCostBudget, "UNITS",
             "summed cost (samples x learned circuit area) the queue holds "
             "before shedding (0 = count-only admission)");
  parser.add("--client-cost-rate", &options.clientCostRate, "UNITS",
             "per-client token bucket: cost units refilled per second "
             "(0 = off; each socket connection is a client)");
  parser.add("--client-cost-burst", &options.clientCostBurst, "UNITS",
             "per-client bucket capacity (0 = one second of rate)");
  parser.add("--batch-shed-fraction", &options.batchShedFraction, "F",
             "queue fullness at which batch-lane requests are shed first "
             "(default 0.5)");
  parser.addSwitch("--degrade",  &options.degradeSamples,
             "trim deadline-carrying requests' samples to the remaining "
             "budget; trimmed responses carry \"degraded\": true");
  parser.add("--watchdog-factor", &options.watchdogFactor, "N",
             "flag requests stuck in flight past N x the p99 request latency "
             "(0 = watchdog off)");
  parser.add("--socket", &socketPath, "PATH",
             "serve a unix stream socket instead of stdin/stdout");

  switch (parser.parse(argc, argv, std::cout, std::cerr)) {
    case mcx::cli::ArgParser::Outcome::Ok: break;
    case mcx::cli::ArgParser::Outcome::Handled: return 0;
    case mcx::cli::ArgParser::Outcome::Error: return 2;
  }
  options.defaultDeadlineMillis = defaultDeadline;
  options.limits.maxSamples = maxSamples;
  options.limits.maxLineBytes = maxLineBytes;
  mcx::CircuitCache::global().setByteBudget(cacheBudgetMb * (std::size_t{1} << 20));

  try {
    mcx::faultinject::armFromEnv();
  } catch (const std::exception& e) {
    std::cerr << "mcx_serve: MCX_FAULTINJECT: " << e.what() << "\n";
    return 2;
  }
  // MCX_TRACE arms tracing; bad trace paths warn and leave tracing off
  // (armTraceFromEnv).
  mcx::obs::armTraceFromEnv();

  if (!installSignalHandlers()) {
    std::cerr << "mcx_serve: failed to install signal handlers\n";
    return 1;
  }

  int exitCode = 0;
  {
    mcx::serve::ExperimentService service(options, [](const std::string& line) {
      std::cout << line << "\n" << std::flush;
    });
    const MetricsFlusher flusher(service, metricsInterval);
    const HealthBeat health(service, healthFile, healthInterval);

    if (socketPath.empty())
      runStdinLoop(service);
    else
      exitCode = runSocketLoop(service, socketPath);

    // Graceful drain: stop admitting, finish everything admitted. The
    // counters are the service's last words, flushed to stderr so response
    // parsing on stdout never sees them.
    service.drain();
    const int sig = gSignal.load(std::memory_order_relaxed);
    if (sig != 0)
      std::cerr << "mcx_serve: received " << (sig == SIGTERM ? "SIGTERM" : "SIGINT")
                << ", drained\n";
    std::cerr << service.countersJson(false) << std::endl;
  }
  return exitCode;
}
