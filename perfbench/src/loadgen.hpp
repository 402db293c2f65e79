// Load generation against a real mcx_serve daemon: the child-process
// handle (spawn, health probe, peak RSS, SIGTERM drain), line-oriented
// unix-socket connections, and the open-loop (scheduled) and closed-loop
// (wait-for-reply) drivers.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace perfbench {

/// An mcx_serve --socket child process. The destructor kills and reaps a
/// daemon that was never drained, so no child outlives the benchmark.
class Daemon {
public:
  /// Spawns @p binary serving @p socketPath with a @p poolThreads sample
  /// pool; stdout and stderr go to @p logPath. Throws on spawn failure.
  Daemon(const std::string& binary, const std::string& socketPath, std::size_t poolThreads,
         const std::string& logPath);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Probe with {"type":"health"} until the daemon answers; false when it
  /// exits or stays silent past @p timeoutSeconds.
  bool waitHealthy(double timeoutSeconds);
  /// SIGTERM, then wait up to @p timeoutSeconds for the graceful drain.
  /// Returns the exit code, or -1 when the daemon died by a signal or had
  /// to be killed.
  int drain(double timeoutSeconds);

private:
  pid_t pid_ = -1;
  std::string socket_;
};

/// A line-oriented client connection to a unix stream socket.
class Connection {
public:
  /// Connects to @p path; throws std::runtime_error on failure.
  explicit Connection(const std::string& path);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  /// Write @p line plus a newline; false when the peer is gone.
  bool sendLine(const std::string& line);
  /// Read what is available and append each complete line to @p out; false
  /// on end of stream or error.
  bool readLines(std::vector<std::string>& out);
  /// Send one line and wait for one reply line.
  std::optional<std::string> roundTrip(const std::string& line, double timeoutSeconds);

private:
  int fd_ = -1;
  std::string buffer_;
};

/// Outcome of one request as seen by the client.
struct ClientRecord {
  bool answered = false;
  std::string reply;
  double latencyMs = 0;  ///< from the due time (open loop) or the send (closed loop)
  double lagMs = 0;      ///< how late the send ran against its due time
  double doneSeconds = 0;  ///< when the reply arrived, from the phase start
};

/// Open loop: request i is sent at @p dueSeconds[i] after the phase starts,
/// on connection i mod conns.size(), whatever the replies are doing.
/// Request lines must carry "id":"<idPrefix><i>". Returns when every
/// request is answered or @p timeoutSeconds after the last due time.
std::vector<ClientRecord> runOpenLoop(std::vector<Connection*>& conns,
                                      const std::vector<std::string>& lines,
                                      const std::vector<double>& dueSeconds,
                                      const std::string& idPrefix, double timeoutSeconds);

/// Closed loop: every connection keeps exactly one request outstanding and
/// sends the next (@p lineFor(i) for the i-th request overall, carrying
/// "id":"<idPrefix><i>") when its reply arrives, until @p durationSeconds
/// have passed; outstanding replies are then collected. Returns the
/// records of every request sent, in send order, and the phase wall time.
std::vector<ClientRecord> runClosedLoop(std::vector<Connection*>& conns,
                                        const std::function<std::string(std::size_t)>& lineFor,
                                        const std::string& idPrefix, double durationSeconds,
                                        double* wallSeconds);

}  // namespace perfbench
