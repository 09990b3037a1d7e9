#pragma once
// Deterministic fault injection for the sweep service's conformance tier.
//
// A FaultConfig describes a seeded schedule of transport faults — drop a
// frame in transit, delay it, abruptly close the connection after N frames
// — plus the worker-level kill hook (die after N executed points, either a
// hard _Exit simulating SIGKILL for the CI process smoke, or an abrupt
// connection drop for the in-process test tier). The schedule is a pure
// function of (seed, event index): two shims with the same config take the
// same actions in the same order, so fault sweeps are as reproducible as
// honest ones — the sweepd_test tier pins both the determinism and that
// the merged report stays byte-identical under faults.
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "net/transport.h"
#include "util/rng.h"

namespace bdg::net {

struct FaultConfig {
  bool enabled = false;
  std::uint64_t seed = 1;  ///< schedule seed (same seed = same schedule)
  double drop = 0.0;       ///< P(frame silently dropped in transit)
  double delay = 0.0;      ///< P(frame delayed by delay_ms before sending)
  std::uint32_t delay_ms = 2;
  /// Abruptly close the channel after this many send attempts (0 = never).
  std::uint32_t close_after_frames = 0;
  /// Worker hook: die after this many executed points (0 = never).
  std::uint32_t kill_after_points = 0;
  /// Worker kill mode: true = std::_Exit(137), simulating SIGKILL for the
  /// CI process smoke; false = drop the connection and stop, for the
  /// in-process test tier (threads cannot be SIGKILLed individually).
  bool kill_hard = false;
};

/// Parse "seed=7,drop=0.1,delay=0.05,delay_ms=3,close_after=20,
/// kill_after=9,hard" (any subset, comma-separated; presence of any field
/// enables the shim). nullopt on an unknown field or malformed number.
[[nodiscard]] std::optional<FaultConfig> parse_fault_config(
    const std::string& text);

[[nodiscard]] std::string to_string(const FaultConfig& cfg);

/// The seeded schedule itself, exposed for determinism tests: the fate of
/// outbound frame k is decided by draws from an Rng seeded once with
/// cfg.seed, in frame order.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& cfg);

  struct Action {
    bool drop = false;
    bool close = false;  ///< close the channel instead of sending
    std::uint32_t delay_ms = 0;
  };

  /// Decide the fate of the next outbound frame.
  [[nodiscard]] Action next_send();

  [[nodiscard]] std::uint64_t frames_seen() const { return frames_; }

 private:
  FaultConfig cfg_;
  Rng rng_;
  std::uint64_t frames_ = 0;
};

/// Channel decorator applying the injector's schedule to outbound frames.
/// Inbound frames pass through untouched: dropping a direction's traffic is
/// expressed by shimming that sender's side, which keeps every lost frame
/// attributable to exactly one schedule. It keeps Channel's per-frame
/// send_frames, so a batch draws the same schedule as a send_frame loop.
class FaultyChannel : public Channel {
 public:
  FaultyChannel(std::unique_ptr<Channel> inner, const FaultConfig& cfg);

  bool send_frame(std::string_view payload) override;
  /// Outbound frames the schedule has decided so far.
  [[nodiscard]] std::uint64_t frames_seen() const {
    return injector_.frames_seen();
  }
  RecvStatus recv_frame(std::string& payload, int timeout_ms) override;
  void shutdown() override;
  [[nodiscard]] int fd() const override;

 private:
  std::unique_ptr<Channel> inner_;
  FaultInjector injector_;
};

/// Wrap `conn` in a FaultyChannel when cfg.enabled, else pass it through.
[[nodiscard]] std::unique_ptr<Channel> maybe_shim(
    std::unique_ptr<Channel> conn, const FaultConfig& cfg);

}  // namespace bdg::net
