#pragma once
// Localhost TCP transport for the sweep service: a listener, framed
// connections, and a capped-exponential-backoff dialer with jitter.
//
// The coordinator multiplexes many connections with poll() (see
// run/service.cpp); connections therefore expose their fd and a
// non-blocking drain path in addition to the blocking-with-timeout
// recv_frame. Sends are blocking. Worker traffic is one small frame at a
// time (a checkpoint record or control message). A query reply is one
// header plus a body frame per cell, sent as one batch: send_frames
// encodes the frames into one buffer and writes it whenever it reaches
// kSendFlushBytes, so a reply costs a few large writes instead of one
// TCP segment per frame, and even a huge dump never builds one giant
// string. A deliberately slow peer can at worst stall its own lease or
// reply, which the coordinator's deadline machinery already tolerates.
//
// Channel is the abstract seam the fault-injection shim (net/fault.h) wraps
// around: the service code talks to Channel only, so deterministic
// drop/delay/close faults compose transparently under it.
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/framing.h"
#include "util/rng.h"

namespace bdg::net {

enum class RecvStatus {
  kFrame,    ///< a complete payload was produced
  kTimeout,  ///< no complete frame within the timeout
  kClosed,   ///< orderly EOF from the peer
  kError,    ///< transport error (treated like kClosed by the service)
};

/// send_frames writes its buffered frames whenever they reach this size.
constexpr std::size_t kSendFlushBytes = 64u << 10;  // 64 KiB

/// A bidirectional framed byte channel. Implementations: Connection (real
/// socket) and FaultyChannel (deterministic fault shim around another
/// Channel).
class Channel {
 public:
  virtual ~Channel() = default;
  /// Send one framed payload. false on any transport failure.
  virtual bool send_frame(std::string_view payload) = 0;
  /// Send `payloads` in order, stopping at the first failure; false on
  /// any transport failure. The default is one send_frame per payload,
  /// so a decorator (FaultyChannel) sees every frame on its own.
  virtual bool send_frames(const std::vector<std::string_view>& payloads);
  /// Wait up to timeout_ms (0 = only what is already buffered/readable,
  /// <0 = block) for one complete frame.
  virtual RecvStatus recv_frame(std::string& payload, int timeout_ms) = 0;
  /// Abrupt close (RST-ish): no goodbye, pending data discarded. Used by
  /// the fault shim's close-after-N and the kill hooks.
  virtual void shutdown() = 0;
  /// Underlying fd for poll() multiplexing; -1 once closed.
  [[nodiscard]] virtual int fd() const = 0;
};

/// One accepted or dialed TCP connection with frame reassembly.
class Connection : public Channel {
 public:
  explicit Connection(int fd);
  ~Connection() override;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send_frame(std::string_view payload) override;
  /// Same bytes as the send_frame loop, written kSendFlushBytes at a time.
  bool send_frames(const std::vector<std::string_view>& payloads) override;
  RecvStatus recv_frame(std::string& payload, int timeout_ms) override;
  void shutdown() override;
  [[nodiscard]] int fd() const override { return fd_; }

 private:
  /// Write all of `bytes`; false on a closed or failed socket.
  bool send_all(std::string_view bytes);
  /// Pull whatever is readable into the reassembly buffer.
  RecvStatus drain();

  int fd_ = -1;
  FrameReader reader_;
};

/// Listening socket on 127.0.0.1 (loopback only — the service is a
/// localhost coordinator, not an exposed daemon). port 0 binds an
/// ephemeral port; port() reports the actual one.
class Listener {
 public:
  /// Throws std::runtime_error when the port cannot be bound.
  explicit Listener(std::uint16_t port);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Accept one pending connection; nullptr when none is ready
  /// (non-blocking — poll on fd() to wait).
  [[nodiscard]] std::unique_ptr<Connection> accept();

  /// Stop listening: later dials are refused instead of queued in the
  /// accept backlog. The coordinator closes when serving ends, so a
  /// worker redialing a finished sweep fails fast rather than hanging
  /// on a connection nobody will ever accept.
  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Whether `host` is a dotted IPv4 address, the only host form dial
/// accepts (it throws on anything else).
[[nodiscard]] bool is_ipv4_address(const std::string& host);

/// Dial host:port once; nullptr on refusal/unreachable.
[[nodiscard]] std::unique_ptr<Connection> dial(const std::string& host,
                                               std::uint16_t port);

/// Worker-side reconnect policy: capped exponential backoff with jitter.
struct BackoffConfig {
  std::uint32_t attempts = 30;   ///< dial attempts before giving up
  std::uint32_t base_ms = 10;    ///< first retry delay
  std::uint32_t max_ms = 1000;   ///< delay cap
};

/// Dial with retries: delay before attempt i is
/// min(max_ms, base_ms << i) scaled by a uniform jitter in [0.5, 1.0)
/// drawn from `jitter` (so a fleet of workers restarting together does not
/// reconnect in lockstep). `cancelled` is polled before each attempt.
/// nullptr once attempts are exhausted or cancelled.
[[nodiscard]] std::unique_ptr<Connection> dial_with_backoff(
    const std::string& host, std::uint16_t port, const BackoffConfig& cfg,
    Rng& jitter, const std::function<bool()>& cancelled = {});

}  // namespace bdg::net
