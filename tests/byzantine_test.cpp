// Adversary library mechanics: each strategy produces the messages and
// movement it promises, the spoofer requires a strong robot, wake rounds
// delay activity, and behaviors are deterministic per seed.
#include "core/byzantine.h"

#include <gtest/gtest.h>

#include "core/protocol_msgs.h"
#include "explore/engine_map.h"
#include "graph/generators.h"
#include "sim/trace.h"

namespace bdg::core {
namespace {

/// Honest listener that records everything it hears for `rounds` rounds.
sim::Proc listen_robot(sim::Ctx ctx, std::uint64_t rounds,
                       std::vector<sim::Msg>* heard) {
  for (std::uint64_t r = 0; r < rounds; ++r) {
    co_await ctx.next_subround();
    for (const sim::Msg& m : ctx.inbox()) heard->push_back(m);
    co_await ctx.next_subround();
    for (const sim::Msg& m : ctx.inbox()) heard->push_back(m);
    co_await ctx.end_round(std::nullopt);
  }
}

struct Heard {
  std::vector<sim::Msg> msgs;
  sim::RunStats stats;
  NodeId byz_end = kNoNode;
};

Heard observe(ByzStrategy strategy, sim::Faultiness fault,
              std::uint64_t rounds = 12, std::uint64_t wake = 0) {
  const Graph g = make_complete(4);  // byz random walks stay observable
  sim::Engine eng(g);
  Heard h;
  eng.add_robot(5, fault, 0,
                make_byzantine_program(strategy, {5, 9}, 42, wake));
  eng.add_robot(9, sim::Faultiness::kHonest, 0,
                [&](sim::Ctx c) { return listen_robot(c, rounds, &h.msgs); });
  h.stats = eng.run(rounds + 4);
  h.byz_end = eng.position_of(5);
  return h;
}

std::size_t count_kind(const Heard& h, std::uint32_t kind) {
  std::size_t c = 0;
  for (const auto& m : h.msgs) c += (m.kind == kind);
  return c;
}

TEST(Byzantine, CrashIsSilent) {
  const Heard h = observe(ByzStrategy::kCrash, sim::Faultiness::kWeakByzantine);
  std::size_t from_byz = 0;
  for (const auto& m : h.msgs) from_byz += (m.claimed == 5);
  EXPECT_EQ(from_byz, 0u);
  EXPECT_EQ(h.byz_end, 0u);
}

TEST(Byzantine, SquatterClaimsSettledAndStays) {
  const Heard h =
      observe(ByzStrategy::kSquatter, sim::Faultiness::kWeakByzantine);
  EXPECT_GT(count_kind(h, kMsgStatus), 5u);
  EXPECT_EQ(h.byz_end, 0u);
}

TEST(Byzantine, SilentSettlerStopsTransmitting) {
  const Heard h =
      observe(ByzStrategy::kSilentSettler, sim::Faultiness::kWeakByzantine);
  // Exactly 3 settled beacons, then silence.
  EXPECT_EQ(count_kind(h, kMsgStatus), 3u);
}

TEST(Byzantine, IntentSpammerAnnouncesEverything) {
  const Heard h =
      observe(ByzStrategy::kIntentSpammer, sim::Faultiness::kWeakByzantine);
  EXPECT_GT(count_kind(h, kMsgIntent), 0u);
  EXPECT_GT(count_kind(h, kMsgSettled), 0u);
}

TEST(Byzantine, MapLiarFloodsMapChannels) {
  const Heard h =
      observe(ByzStrategy::kMapLiar, sim::Faultiness::kWeakByzantine);
  EXPECT_GT(count_kind(h, explore::kMsgTokenHere), 0u);
  EXPECT_GT(count_kind(h, explore::kMsgInstr), 0u);
  EXPECT_GT(count_kind(h, explore::kMsgMapCode), 0u);
}

TEST(Byzantine, SpooferForgesPeerIds) {
  const Heard h =
      observe(ByzStrategy::kSpoofer, sim::Faultiness::kStrongByzantine);
  bool forged = false;
  for (const auto& m : h.msgs)
    if (m.claimed == 9 && m.source == 0) forged = true;  // robot 5 is idx 0
  EXPECT_TRUE(forged);
}

TEST(Byzantine, SpooferRequiresStrongRobot) {
  // A weak robot running the spoofer program hits the engine's transport
  // enforcement and the run aborts.
  EXPECT_THROW(observe(ByzStrategy::kSpoofer, sim::Faultiness::kWeakByzantine),
               std::logic_error);
}

TEST(Byzantine, WakeRoundDelaysActivity) {
  const Heard active = observe(ByzStrategy::kSquatter,
                               sim::Faultiness::kWeakByzantine, 12, 0);
  const Heard delayed = observe(ByzStrategy::kSquatter,
                                sim::Faultiness::kWeakByzantine, 12, 8);
  EXPECT_GT(count_kind(active, kMsgStatus), count_kind(delayed, kMsgStatus));
  EXPECT_GT(count_kind(delayed, kMsgStatus), 0u);  // wakes before the end
}

TEST(Byzantine, DeterministicPerSeed) {
  auto run = [] {
    const Graph g = make_complete(4);
    sim::Engine eng(g);
    eng.add_robot(5, sim::Faultiness::kWeakByzantine, 0,
                  make_byzantine_program(ByzStrategy::kRandomWalker, {5}, 7));
    std::vector<sim::Msg> heard;
    eng.add_robot(9, sim::Faultiness::kHonest, 0,
                  [&](sim::Ctx c) { return listen_robot(c, 10, &heard); });
    eng.run(14);
    return eng.position_of(5);
  };
  EXPECT_EQ(run(), run());
}

TEST(Byzantine, StrategyNamesRoundTripExhaustively) {
  std::vector<ByzStrategy> all = weak_strategies();
  all.push_back(ByzStrategy::kSpoofer);
  for (const auto s : all) {
    const auto back = strategy_from_string(to_string(s));
    ASSERT_TRUE(back.has_value()) << to_string(s);
    EXPECT_EQ(*back, s);
  }
}

TEST(Byzantine, ToStringThrowsOnCorruptEnumValue) {
  // A checkpoint record holding a corrupted/future strategy value must fail
  // loudly at serialization time, not round-trip through "unknown".
  EXPECT_THROW(to_string(static_cast<ByzStrategy>(255)), std::invalid_argument);
  EXPECT_THROW(to_string(static_cast<ByzStrategy>(-1)), std::invalid_argument);
}

TEST(Byzantine, SpooferOnWeakRobotThrowsBeforeWake) {
  // Regression: the faultiness check used to sit after sleep_rounds(wake),
  // so a weak robot handed the spoofer with a huge charged prefix ran
  // silently for the whole experiment instead of aborting at round 0.
  // Charged windows after the wake must not delay the check either.
  const Graph g = make_complete(4);
  sim::Engine eng(g);
  ByzSchedule sched{std::uint64_t{1} << 40};
  sched.charged = {
      {Round(std::uint64_t{1} << 41), Round(std::uint64_t{1} << 42)}};
  eng.add_robot(5, sim::Faultiness::kWeakByzantine, 0,
                make_byzantine_program(ByzStrategy::kSpoofer, {5, 9}, 42,
                                       std::move(sched)));
  std::vector<sim::Msg> heard;
  eng.add_robot(9, sim::Faultiness::kHonest, 0,
                [&](sim::Ctx c) { return listen_robot(c, 4, &heard); });
  EXPECT_THROW(eng.run(8), std::logic_error);
}

TEST(Byzantine, EmptyChargedWindowIsRejected) {
  // ChargeGate only skips an [a, a) window by accident of its >= compare;
  // schedule validation pins the invariant at construction instead.
  ByzSchedule sched{2};
  sched.charged = {{5, 5}};
  EXPECT_THROW(
      make_byzantine_program(ByzStrategy::kSquatter, {5}, 1, sched),
      std::invalid_argument);
  // Unsorted / overlapping / pre-wake windows are rejected too.
  ByzSchedule bad{4};
  bad.charged = {{2, 6}};  // starts before wake
  EXPECT_THROW(make_byzantine_program(ByzStrategy::kSquatter, {5}, 1, bad),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Conformance with the retired per-round strategy coroutines. Every
// strategy used to exist twice: a hand-written coroutine and the compiled
// IR. The coroutines' observations were recorded before their removal
// (digest of every heard message's claimed/source/kind/payload, in order,
// plus the adversary's final node and the run totals) and the interpreter
// must reproduce them exactly — live (listener awake every round), across
// an engine fast-forward (listener asleep, so the parked interpreter
// replays the gap) and across charged windows. Each case also runs with a
// no-op observer attached, which keeps the interpreter live every round:
// it must match the unobserved run on everything but simulated_rounds,
// pinning that replay equals live execution.
// ---------------------------------------------------------------------------

sim::Proc listen_after(sim::Ctx ctx, std::uint64_t sleep_first,
                       std::uint64_t rounds, std::vector<sim::Msg>* heard) {
  if (sleep_first != 0) co_await ctx.sleep_rounds(sleep_first);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    co_await ctx.next_subround();
    for (const sim::Msg& m : ctx.inbox()) heard->push_back(m);
    co_await ctx.next_subround();
    for (const sim::Msg& m : ctx.inbox()) heard->push_back(m);
    co_await ctx.end_round(std::nullopt);
  }
}

struct NoopObserver final : sim::Observer {};

Heard observe_program(ByzStrategy strategy, bool observed,
                      std::uint64_t sleep_first, std::uint64_t rounds,
                      const ByzSchedule& sched) {
  const Graph g = make_complete(4);
  sim::Engine eng(g);
  NoopObserver noop;
  if (observed) eng.set_observer(&noop);
  Heard h;
  eng.add_robot(5,
                strategy == ByzStrategy::kSpoofer
                    ? sim::Faultiness::kStrongByzantine
                    : sim::Faultiness::kWeakByzantine,
                0, make_byzantine_program(strategy, {5, 9}, 42, sched));
  eng.add_robot(9, sim::Faultiness::kHonest, 0, [&](sim::Ctx c) {
    return listen_after(c, sleep_first, rounds, &h.msgs);
  });
  h.stats = eng.run(sleep_first + rounds + 4);
  h.byz_end = eng.position_of(5);
  return h;
}

/// FNV-1a over the bytes of every message's claimed ID, source tag, kind,
/// payload length and payload words, in delivery order.
std::uint64_t digest_msgs(const std::vector<sim::Msg>& msgs) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto word = [&h](std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  };
  for (const sim::Msg& m : msgs) {
    word(m.claimed);
    word(m.source);
    word(m.kind);
    word(m.data.size());
    for (const std::int64_t w : m.data.view())
      word(static_cast<std::uint64_t>(w));
  }
  return h;
}

/// One strategy's recorded coroutine observation.
struct Golden {
  ByzStrategy strategy;
  std::uint64_t msgs_digest;
  NodeId byz_end;
  std::uint64_t rounds;
  std::uint64_t moves;
  std::uint64_t messages;
};

void expect_matches_golden(const std::vector<Golden>& goldens,
                           std::uint64_t sleep_first, std::uint64_t rounds,
                           const ByzSchedule& sched) {
  // Every strategy, weak ones plus the spoofer, has a recorded row.
  ASSERT_EQ(goldens.size(), weak_strategies().size() + 1);
  for (const Golden& g : goldens) {
    SCOPED_TRACE(to_string(g.strategy));
    const Heard plain =
        observe_program(g.strategy, false, sleep_first, rounds, sched);
    EXPECT_EQ(digest_msgs(plain.msgs), g.msgs_digest);
    EXPECT_EQ(plain.byz_end, g.byz_end);
    EXPECT_EQ(plain.stats.rounds, Round(g.rounds));
    EXPECT_EQ(plain.stats.moves, g.moves);
    EXPECT_EQ(plain.stats.messages, g.messages);

    const Heard observed =
        observe_program(g.strategy, true, sleep_first, rounds, sched);
    ASSERT_EQ(observed.msgs.size(), plain.msgs.size());
    for (std::size_t i = 0; i < plain.msgs.size(); ++i) {
      EXPECT_EQ(observed.msgs[i].claimed, plain.msgs[i].claimed) << i;
      EXPECT_EQ(observed.msgs[i].source, plain.msgs[i].source) << i;
      EXPECT_EQ(observed.msgs[i].kind, plain.msgs[i].kind) << i;
      EXPECT_EQ(observed.msgs[i].data, plain.msgs[i].data) << i;
    }
    EXPECT_EQ(observed.byz_end, plain.byz_end);
    EXPECT_EQ(observed.stats.rounds, plain.stats.rounds);
    EXPECT_EQ(observed.stats.moves, plain.stats.moves);
    EXPECT_EQ(observed.stats.messages, plain.stats.messages);
    EXPECT_GE(observed.stats.simulated_rounds, plain.stats.simulated_rounds);
  }
}

TEST(CompiledStrategy, MatchesCoroutineLive) {
  const std::vector<Golden> goldens = {
      {ByzStrategy::kCrash, 0xcbf29ce484222325ULL, 0, 15, 0, 0},
      {ByzStrategy::kRandomWalker, 0xa038c2338c2a8ca5ULL, 3, 15, 15, 15},
      {ByzStrategy::kSquatter, 0x0efe4854ee699e85ULL, 0, 15, 0, 15},
      {ByzStrategy::kFakeSettler, 0xc1a126c74d783245ULL, 0, 15, 8, 7},
      {ByzStrategy::kSilentSettler, 0x583ee8f80d41d3a8ULL, 0, 15, 0, 3},
      {ByzStrategy::kIntentSpammer, 0x672a99eb4aa10605ULL, 3, 15, 15, 45},
      {ByzStrategy::kMapLiar, 0x9f62a7dbc066c2a7ULL, 1, 15, 4, 60},
      {ByzStrategy::kSpoofer, 0x0706819c85cef467ULL, 0, 15, 9, 255},
  };
  expect_matches_golden(goldens, 0, 14, ByzSchedule{0});
}

TEST(CompiledStrategy, MatchesCoroutineAcrossFastForward) {
  // Listener sleeps 9 rounds first: the adversary is the only (parked)
  // robot, the engine fast-forwards the gap, and the interpreter must
  // replay it (draws, suppressed messages, immediate hops) so the
  // listener wakes to a bit-identical world.
  const std::vector<Golden> goldens = {
      {ByzStrategy::kCrash, 0xcbf29ce484222325ULL, 0, 20, 0, 0},
      {ByzStrategy::kRandomWalker, 0xa038c2338c2a8ca5ULL, 3, 20, 20, 20},
      {ByzStrategy::kSquatter, 0x7ac357d6a881b9c5ULL, 0, 20, 0, 20},
      {ByzStrategy::kFakeSettler, 0xc1a126c74d783245ULL, 2, 20, 11, 9},
      {ByzStrategy::kSilentSettler, 0xcbf29ce484222325ULL, 0, 20, 0, 3},
      {ByzStrategy::kIntentSpammer, 0x672a99eb4aa10605ULL, 3, 20, 20, 60},
      {ByzStrategy::kMapLiar, 0x3013c9d3a0408825ULL, 2, 20, 5, 80},
      {ByzStrategy::kSpoofer, 0xa4b890ec39486be5ULL, 3, 20, 12, 340},
  };
  expect_matches_golden(goldens, 9, 10, ByzSchedule{0});
}

TEST(CompiledStrategy, MatchesCoroutineWithChargedWindows) {
  ByzSchedule sched{3};
  sched.charged = {{5, 8}, {11, 13}};
  const std::vector<Golden> goldens = {
      {ByzStrategy::kCrash, 0xcbf29ce484222325ULL, 0, 20, 0, 0},
      {ByzStrategy::kRandomWalker, 0xcbf29ce484222325ULL, 0, 20, 12, 12},
      {ByzStrategy::kSquatter, 0x7efd7754c535d988ULL, 0, 20, 0, 12},
      {ByzStrategy::kFakeSettler, 0xcbf29ce484222325ULL, 1, 20, 6, 6},
      {ByzStrategy::kSilentSettler, 0x8ac9f783b5be4108ULL, 0, 20, 0, 3},
      {ByzStrategy::kIntentSpammer, 0xcbf29ce484222325ULL, 0, 20, 12, 36},
      {ByzStrategy::kMapLiar, 0x04f4aff706979446ULL, 2, 20, 3, 48},
      {ByzStrategy::kSpoofer, 0x3ffcf36e02868404ULL, 0, 20, 6, 204},
  };
  expect_matches_golden(goldens, 7, 12, sched);
}

TEST(CompiledStrategy, RangeEffectReplaysAGapPastTwoToThe32Rounds) {
  // The listener sleeps 2^40 rounds, so the parked squatter replays a gap
  // far past one 2^32-round range-effect chunk. The model is exact: one
  // settled beacon per round and no move. Each chunk costs one resume, so
  // the fast-forward takes about gap / 2^32 resumes.
  constexpr std::uint64_t kGap = std::uint64_t{1} << 40;
  const Heard h =
      observe_program(ByzStrategy::kSquatter, false, kGap, 1, ByzSchedule{0});
  EXPECT_EQ(h.stats.messages, h.stats.rounds.low_u64());
  EXPECT_GT(h.stats.rounds, Round(kGap));
  EXPECT_EQ(h.stats.moves, 0u);
  EXPECT_EQ(h.byz_end, 0u);
  EXPECT_EQ(count_kind(h, kMsgStatus), 1u);
  EXPECT_LE(h.stats.simulated_rounds, 8u);
  EXPECT_GE(h.stats.resumes, kGap >> 32);
  EXPECT_LE(h.stats.resumes, (kGap >> 32) + 16);
}

TEST(Byzantine, StrategyNamesAreUniqueAndComplete) {
  std::set<std::string> names;
  for (const auto s : weak_strategies()) names.insert(to_string(s));
  EXPECT_EQ(names.size(), weak_strategies().size());
  EXPECT_EQ(to_string(ByzStrategy::kSpoofer), "spoofer");
  // The spoofer is deliberately NOT in the weak list.
  for (const auto s : weak_strategies()) EXPECT_NE(s, ByzStrategy::kSpoofer);
}

}  // namespace
}  // namespace bdg::core
