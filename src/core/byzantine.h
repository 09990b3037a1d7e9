#pragma once
// Byzantine behavior library — the adversary strategies the test suite and
// benchmarks pit against the honest protocols. A weak Byzantine robot may
// lie arbitrarily in message *payloads* and deviate from the protocol, but
// its messages always carry its true ID (engine-enforced); a strong one
// additionally forges sender IDs via Ctx::spoof_broadcast.
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/round.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace bdg::core {

enum class ByzStrategy {
  kCrash,          ///< never communicates, never moves
  kRandomWalker,   ///< wanders, beacons tobeSettled, never settles
  kSquatter,       ///< sits at its start node claiming Settled forever
  kFakeSettler,    ///< claims Settled, relocates periodically, claims again
  kSilentSettler,  ///< claims Settled once, then goes silent (step-4 bait)
  kIntentSpammer,  ///< always flags intent/settle announcements, never stays
  kMapLiar,        ///< in map finding: garbage instructions / presence lies
  kSpoofer,        ///< strong only: forges honest IDs and quorum votes
};

[[nodiscard]] std::string to_string(ByzStrategy s);

/// Inverse of to_string(ByzStrategy); nullopt for unknown names. Used by
/// the sweep checkpoint reader and the CLI mix parser.
[[nodiscard]] std::optional<ByzStrategy> strategy_from_string(
    const std::string& name);

/// All weak-compatible strategies (everything but kSpoofer).
[[nodiscard]] const std::vector<ByzStrategy>& weak_strategies();

/// When a Byzantine robot is allowed to act. During a charged oracle phase
/// (gathering / Find-Map) every honest robot is walking or sleeping out an
/// imported round bound: there is nothing to attack, and a Byzantine robot
/// that stays awake only defeats the engine's round fast-forwarding. The
/// scenario harness therefore hands each Byzantine robot its wave's wake
/// round plus the charged windows of every LATER wave (Theorem 8 wave
/// scheduling), and the robot sleeps through all of them — so
/// multi-wave k > n sweeps fast-forward their oracle prefixes exactly like
/// single-wave runs.
struct ByzSchedule {
  /// First active round (end of the robot's own wave's charged prefix).
  Round wake = 0;
  /// Charged windows [begin, end) at or after `wake`, sorted and disjoint;
  /// the robot sleeps through each.
  std::vector<std::pair<Round, Round>> charged;

  ByzSchedule() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): a bare wake round is a
  // schedule (the single-wave case every test and bench uses).
  ByzSchedule(Round wake_round) : wake(wake_round) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  ByzSchedule(std::uint64_t wake_round) : wake(wake_round) {}
};

/// Cursor over a schedule's charged windows. pending() returns how long to
/// sleep from `now` to clear the window containing it (0 = outside every
/// window). Windows are sorted, so the cursor only ever advances —
/// checking costs O(1) per awake round. The strategy interpreter also uses
/// until_next to bound replayed stretches.
struct ChargeGate {
  ByzSchedule sched;
  std::size_t next = 0;

  [[nodiscard]] Round pending(Round now);
  /// Rounds from `now` until the next charged window begins; saturated
  /// when no window remains. Requires a preceding pending(now) == 0 call
  /// (the cursor must already sit on the first window at or after now).
  [[nodiscard]] Round until_next(Round now) const;
};

// ---------------------------------------------------------------------------
// Compiled strategies (range-effect IR)
// ---------------------------------------------------------------------------
//
// Every strategy is a tiny loop: emit a fixed op list each round, draw a
// move, occasionally switch phase. CompiledStrategy captures that loop as
// plain data — phases of round-ranges with per-round ops — and ONE
// interpreter coroutine (behind make_byzantine_program) runs any such
// program; kCrash is the program with no phases. Live rounds walk the op
// list. Between rounds the interpreter parks via Ctx::end_round_ambient,
// so an always-broadcasting adversary does not block the engine's O(1)
// fast-forward over honest sleep windows. A fast-forwarded stretch is
// replayed from a per-phase digest built at program start: the RNG bounds
// one round draws, in op order (one per victim draw and one per payload
// draw of every op that sends), and the messages it sends. Each replayed
// round redraws those bounds and the move; a phase that draws nothing and
// stays replays as one range effect. The recorded goldens in tests/byzantine_test.cpp
// and the observed-vs-unobserved differentials (an engine with an
// observer attached never parks the robot, so it runs every round live)
// pin replay to the live op walk.
struct CompiledStrategy {
  /// Payload element: a literal, or one rng.below(4) draw at emission
  /// time (draw order = element order within the op list).
  struct PayloadElem {
    std::int64_t literal = 0;
    bool draw_below4 = false;
  };
  enum class OpKind : std::uint8_t {
    kBroadcast,       ///< broadcast(msg_kind, payload)
    kSpoofBroadcast,  ///< spoof_broadcast(current victim, msg_kind, payload)
    kDrawVictim,      ///< victim = peers[below(|peers|)] (no-op if none)
    kNextSubround,    ///< advance to the next sub-round (live rounds only)
  };
  struct Op {
    OpKind kind = OpKind::kBroadcast;
    std::uint32_t msg_kind = 0;
    std::vector<PayloadElem> payload;
  };
  /// How many rounds a phase lasts when (re-)entered.
  enum class LenRule : std::uint8_t {
    kForever,        ///< never leaves the phase
    kFixed,          ///< base rounds
    kDrawOnce,       ///< base + below(bound) drawn once at program start
    kDrawEachEntry,  ///< base + below(bound) drawn at every phase entry
  };
  /// Move drawn at each round boundary of the phase.
  enum class MoveRule : std::uint8_t {
    kStay,
    kRandomPort,  ///< below(degree); stays (and draws nothing) at degree 0
    kChancePort,  ///< chance(1,2), then kRandomPort on success
  };
  struct Phase {
    LenRule len = LenRule::kForever;
    std::uint64_t base = 0;   ///< fixed length / draw offset
    std::uint64_t bound = 0;  ///< draw bound (0 = no draw)
    bool n_scaled = false;    ///< multiply bound by ctx.n() (fake settler)
    std::vector<Op> ops;      ///< per-round ops in emission order
    MoveRule move = MoveRule::kStay;
  };
  std::vector<Phase> phases;
  bool loop = true;      ///< cycle phases forever; false = run once, finish
  bool spoofing = false; ///< requires a strong robot (kSpoofer)
};

/// Compiled form of `s`. kCrash compiles to the program with no phases,
/// which finishes at round 0 and never wakes the engine.
[[nodiscard]] CompiledStrategy compile_strategy(ByzStrategy s);

/// Build the engine program for a Byzantine robot: the strategy's
/// compiled form run by the one interpreter (kCrash finishes at round 0).
/// `peer_ids` lists all robot IDs (used for spoofing and targeted lies);
/// `seed` derives the robot's private randomness. The robot honors
/// `schedule`: it sleeps until schedule.wake first and stays asleep
/// through every later charged window. Throws std::invalid_argument on a
/// malformed schedule (an empty [a, a) window, unsorted/overlapping
/// windows, or a window starting before wake); the program throws
/// std::logic_error at round 0 if kSpoofer runs on a weak robot.
[[nodiscard]] sim::ProgramFactory make_byzantine_program(
    ByzStrategy strategy, std::vector<sim::RobotId> peer_ids,
    std::uint64_t seed, ByzSchedule schedule = {});

}  // namespace bdg::core
