#include "net/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace bdg::net {
namespace {

sockaddr_in loopback_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("transport: bad IPv4 address: " + host);
  return addr;
}

}  // namespace

bool is_ipv4_address(const std::string& host) {
  in_addr addr{};
  return ::inet_pton(AF_INET, host.c_str(), &addr) == 1;
}

// --- Connection ------------------------------------------------------------

Connection::Connection(int fd) : fd_(fd) {
  const int one = 1;
  // Frames are request/response-ish and small: turn off Nagle so lease and
  // heartbeat latency is not batched behind 40ms delayed ACKs.
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

Connection::~Connection() { shutdown(); }

void Connection::shutdown() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Channel::send_frames(const std::vector<std::string_view>& payloads) {
  for (const std::string_view payload : payloads)
    if (!send_frame(payload)) return false;
  return true;
}

bool Connection::send_all(std::string_view bytes) {
  if (fd_ < 0) return false;
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE, not a process-wide SIGPIPE.
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool Connection::send_frame(std::string_view payload) {
  return fd_ >= 0 && send_all(encode_frame(payload));
}

bool Connection::send_frames(const std::vector<std::string_view>& payloads) {
  std::string buf;
  for (const std::string_view payload : payloads) {
    append_frame(buf, payload);
    if (buf.size() >= kSendFlushBytes) {
      if (!send_all(buf)) return false;
      buf.clear();
    }
  }
  return buf.empty() || send_all(buf);
}

RecvStatus Connection::drain() {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) {
      reader_.feed(buf, static_cast<std::size_t>(n));
      if (n < static_cast<ssize_t>(sizeof buf)) return RecvStatus::kFrame;
      continue;  // maybe more buffered
    }
    if (n == 0) return RecvStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return RecvStatus::kTimeout;
    return RecvStatus::kError;
  }
}

RecvStatus Connection::recv_frame(std::string& payload, int timeout_ms) {
  using clock = std::chrono::steady_clock;
  const auto deadline =
      timeout_ms < 0 ? clock::time_point::max()
                     : clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    // Frames already reassembled win before any socket wait.
    if (auto frame = reader_.next()) {
      payload = std::move(*frame);
      return RecvStatus::kFrame;
    }
    if (fd_ < 0) return RecvStatus::kClosed;
    int wait_ms;
    if (timeout_ms < 0) {
      wait_ms = -1;
    } else {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - clock::now())
                            .count();
      if (left < 0) return RecvStatus::kTimeout;
      wait_ms = static_cast<int>(left);
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, wait_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return RecvStatus::kError;
    }
    if (pr == 0) return RecvStatus::kTimeout;
    const RecvStatus st = drain();
    if (st == RecvStatus::kClosed || st == RecvStatus::kError) {
      // EOF may still leave complete frames in the buffer; hand those out
      // first so a peer that sends-then-closes loses nothing.
      if (auto frame = reader_.next()) {
        payload = std::move(*frame);
        return RecvStatus::kFrame;
      }
      return st;
    }
  }
}

// --- Listener --------------------------------------------------------------

Listener::Listener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("transport: socket() failed");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback_addr("127.0.0.1", port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd_, 64) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("transport: cannot listen on 127.0.0.1:" +
                             std::to_string(port));
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port_ = ntohs(addr.sin_port);
}

Listener::~Listener() { close(); }

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::unique_ptr<Connection> Listener::accept() {
  if (fd_ < 0) return nullptr;
  pollfd pfd{fd_, POLLIN, 0};
  if (::poll(&pfd, 1, 0) <= 0) return nullptr;
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return nullptr;
  return std::make_unique<Connection>(fd);
}

// --- dialing ---------------------------------------------------------------

std::unique_ptr<Connection> dial(const std::string& host,
                                 std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr = loopback_addr(host, port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return nullptr;
  }
  return std::make_unique<Connection>(fd);
}

std::unique_ptr<Connection> dial_with_backoff(
    const std::string& host, std::uint16_t port, const BackoffConfig& cfg,
    Rng& jitter, const std::function<bool()>& cancelled) {
  std::uint64_t delay = cfg.base_ms;
  for (std::uint32_t attempt = 0; attempt < cfg.attempts; ++attempt) {
    if (cancelled && cancelled()) return nullptr;
    if (auto conn = dial(host, port)) return conn;
    // Jittered, capped exponential backoff: [0.5, 1.0) of the nominal
    // delay so restarting fleets spread out instead of thundering.
    const double scale = 0.5 + 0.5 * jitter.uniform();
    const auto ms = static_cast<std::uint64_t>(
        static_cast<double>(std::min<std::uint64_t>(delay, cfg.max_ms)) *
        scale);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    if (delay < cfg.max_ms) delay *= 2;
  }
  return nullptr;
}

}  // namespace bdg::net
