#include "loadgen.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "serve/request.hpp"

extern char** environ;

namespace perfbench {

namespace {

double secondsSince(Nanos start) { return static_cast<double>(nowNanos() - start) / 1e9; }

/// Index of a reply's request from its echoed "<prefix><i>" id, or -1.
long replyIndex(const std::string& reply, const std::string& prefix) {
  const std::string id = mcx::serve::extractRequestId(reply);
  if (id.size() <= prefix.size() || id.compare(0, prefix.size(), prefix) != 0) return -1;
  long index = -1;
  const auto [end, ec] = std::from_chars(id.data() + prefix.size(), id.data() + id.size(), index);
  if (ec != std::errc() || end != id.data() + id.size()) return -1;
  return index;
}

/// Wait for readable connections for at most @p timeoutSeconds.
int pollConnections(std::vector<pollfd>& fds, double timeoutSeconds) {
  if (timeoutSeconds < 0) timeoutSeconds = 0;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(timeoutSeconds);
  ts.tv_nsec = static_cast<long>((timeoutSeconds - static_cast<double>(ts.tv_sec)) * 1e9);
  for (pollfd& p : fds) p.revents = 0;
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  return ready < 0 && errno == EINTR ? 0 : ready;
}

}  // namespace

// ------------------------------------------------------------------ Daemon

Daemon::Daemon(const std::string& binary, const std::string& socketPath,
               std::size_t poolThreads, const std::string& logPath)
    : socket_(socketPath) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, logPath.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const std::string threads = std::to_string(poolThreads);
  std::vector<std::string> args = {binary, "--socket", socketPath, "--pool-threads", threads};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + binary + ": " + std::strerror(rc));
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

bool Daemon::waitHealthy(double timeoutSeconds) {
  const Nanos start = nowNanos();
  while (secondsSince(start) < timeoutSeconds) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;  // exited before answering
      return false;
    }
    try {
      Connection probe(socket_);
      const std::optional<std::string> reply =
          probe.roundTrip("{\"id\":\"health\",\"type\":\"health\"}", timeoutSeconds);
      if (reply && reply->find("\"health\"") != std::string::npos) return true;
    } catch (const std::exception&) {
      // Not listening yet: retry shortly.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

int Daemon::drain(double timeoutSeconds) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  const Nanos start = nowNanos();
  int status = 0;
  for (;;) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (done < 0 || secondsSince(start) > timeoutSeconds) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// -------------------------------------------------------------- Connection

Connection::Connection(const std::string& path) {
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd_);
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.data(), path.size());
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    throw std::runtime_error("connect " + path + ": " + why);
  }
}

Connection::~Connection() { ::close(fd_); }

bool Connection::sendLine(const std::string& line) {
  const std::string buffer = line + "\n";
  std::size_t off = 0;
  while (off < buffer.size()) {
    const ssize_t n = ::send(fd_, buffer.data() + off, buffer.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool Connection::readLines(std::vector<std::string>& out) {
  char chunk[65536];
  const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return true;
  if (n <= 0) return false;
  buffer_.append(chunk, static_cast<std::size_t>(n));
  std::size_t start = 0;
  for (std::size_t nl; (nl = buffer_.find('\n', start)) != std::string::npos; start = nl + 1)
    out.push_back(buffer_.substr(start, nl - start));
  buffer_.erase(0, start);
  return true;
}

std::optional<std::string> Connection::roundTrip(const std::string& line,
                                                 double timeoutSeconds) {
  if (!sendLine(line)) return std::nullopt;
  const Nanos start = nowNanos();
  std::vector<std::string> lines;
  std::vector<pollfd> fds = {{fd_, POLLIN, 0}};
  while (lines.empty()) {
    const double left = timeoutSeconds - secondsSince(start);
    if (left <= 0) return std::nullopt;
    if (pollConnections(fds, left) > 0 && !readLines(lines)) return std::nullopt;
  }
  return lines.front();
}

// ----------------------------------------------------------------- drivers

std::vector<ClientRecord> runOpenLoop(std::vector<Connection*>& conns,
                                      const std::vector<std::string>& lines,
                                      const std::vector<double>& dueSeconds,
                                      const std::string& idPrefix, double timeoutSeconds) {
  std::vector<ClientRecord> records(lines.size());
  std::vector<pollfd> fds;
  for (Connection* c : conns) fds.push_back({c->fd(), POLLIN, 0});
  const double lastDue = dueSeconds.empty() ? 0.0 : dueSeconds.back();
  std::size_t next = 0;
  std::size_t answered = 0;
  std::vector<std::string> replies;
  const Nanos start = nowNanos();
  while (answered < lines.size()) {
    double now = secondsSince(start);
    if (now > lastDue + timeoutSeconds) break;
    while (next < lines.size() && dueSeconds[next] <= now) {
      records[next].lagMs = (now - dueSeconds[next]) * 1e3;
      if (!conns[next % conns.size()]->sendLine(lines[next])) return records;
      ++next;
      now = secondsSince(start);
    }
    const double wait = next < lines.size() ? dueSeconds[next] - now : 0.05;
    if (pollConnections(fds, wait) <= 0) continue;
    const double recvAt = secondsSince(start);
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].revents == 0) continue;
      replies.clear();
      if (!conns[k]->readLines(replies)) return records;
      for (std::string& reply : replies) {
        const long index = replyIndex(reply, idPrefix);
        if (index < 0 || static_cast<std::size_t>(index) >= next) continue;
        ClientRecord& rec = records[static_cast<std::size_t>(index)];
        if (rec.answered) continue;
        rec.answered = true;
        rec.latencyMs = (recvAt - dueSeconds[static_cast<std::size_t>(index)]) * 1e3;
        rec.doneSeconds = recvAt;
        rec.reply = std::move(reply);
        ++answered;
      }
    }
  }
  return records;
}

std::vector<ClientRecord> runClosedLoop(std::vector<Connection*>& conns,
                                        const std::function<std::string(std::size_t)>& lineFor,
                                        const std::string& idPrefix, double durationSeconds,
                                        double* wallSeconds) {
  std::vector<ClientRecord> records;
  std::vector<double> sentAt;
  std::vector<pollfd> fds;
  for (Connection* c : conns) fds.push_back({c->fd(), POLLIN, 0});
  std::size_t outstanding = 0;
  const Nanos start = nowNanos();
  const auto send = [&](std::size_t k) {
    const std::size_t i = records.size();
    records.emplace_back();
    sentAt.push_back(secondsSince(start));
    if (!conns[k]->sendLine(lineFor(i))) return false;
    ++outstanding;
    return true;
  };
  for (std::size_t k = 0; k < conns.size(); ++k)
    if (!send(k)) return records;
  std::vector<std::string> replies;
  while (outstanding > 0) {
    // Drain outstanding replies for at most 60 s past the phase end.
    if (secondsSince(start) > durationSeconds + 60) break;
    if (pollConnections(fds, 0.05) <= 0) continue;
    const double recvAt = secondsSince(start);
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].revents == 0) continue;
      replies.clear();
      if (!conns[k]->readLines(replies)) return records;
      for (std::string& reply : replies) {
        const long index = replyIndex(reply, idPrefix);
        if (index < 0 || static_cast<std::size_t>(index) >= records.size()) continue;
        ClientRecord& rec = records[static_cast<std::size_t>(index)];
        if (rec.answered) continue;
        rec.answered = true;
        rec.latencyMs = (recvAt - sentAt[static_cast<std::size_t>(index)]) * 1e3;
        rec.doneSeconds = recvAt;
        rec.reply = std::move(reply);
        --outstanding;
        if (recvAt < durationSeconds && !send(k)) return records;
      }
    }
  }
  if (wallSeconds != nullptr) *wallSeconds = secondsSince(start);
  return records;
}

}  // namespace perfbench
