// Sweep-level conformance tier for the Byzantine strategy interpreter: a
// grid of every strategy x {tournament, group, crash-real} x {single-wave
// k = n, multi-wave k > n} x mixes must reproduce, point for point, the
// results the retired per-round strategy coroutines produced — verdict,
// rounds, planned_rounds, derived_seed, moves, messages. Those results
// were recorded before the coroutines were deleted; the interpreter parks
// between rounds and replays fast-forwarded ones as range effects, so any
// drift in that replay shows up here. Runs under the tsan preset job in
// CI, so the ambient-parking engine paths are also raced against the
// parallel sweep runner.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/byzantine.h"
#include "core/scenario.h"
#include "graph/generators.h"
#include "run/sweep.h"

namespace bdg::run {
namespace {

using core::Algorithm;
using core::ByzStrategy;

/// One point's recorded result, in grid order.
struct GoldenPoint {
  std::uint64_t derived_seed;
  bool skipped;
  bool ok;
  std::uint64_t rounds;
  std::uint64_t planned_rounds;
  std::uint64_t moves;
  std::uint64_t messages;
};

/// Run `spec` and require every point to match its recorded row on all
/// observable fields (seconds excluded: the specs run with
/// measure_seconds off, so reports are pure functions of the spec and any
/// drift is a conformance failure, not noise).
void expect_recorded(SweepSpec spec, const std::vector<GoldenPoint>& golden) {
  spec.measure_seconds = false;
  const SweepResult res = run_sweep(spec);
  ASSERT_EQ(res.points.size(), golden.size());
  std::size_t ran = 0;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const PointResult& p = res.points[i];
    const GoldenPoint& g = golden[i];
    SCOPED_TRACE(core::to_string(p.point.algorithm) + " on " +
                 p.point.family + " n=" + std::to_string(p.point.n) +
                 " k=" + std::to_string(p.point.k) +
                 " f=" + std::to_string(p.point.f) + " strategy=" +
                 core::to_string(p.point.strategy));
    EXPECT_EQ(p.derived_seed, g.derived_seed);
    EXPECT_EQ(p.skipped, g.skipped);
    if (p.skipped || g.skipped) continue;
    ++ran;
    EXPECT_EQ(p.ok, g.ok) << p.detail;
    EXPECT_EQ(p.stats.rounds, core::Round(g.rounds));
    EXPECT_EQ(p.planned_rounds, core::Round(g.planned_rounds));
    EXPECT_EQ(p.stats.moves, g.moves);
    EXPECT_EQ(p.stats.messages, g.messages);
  }
  EXPECT_GT(ran, 0u) << "sweep skipped every point";
}

// Every weak strategy against the tournament and group algorithms at
// their claimed tolerance (one strategy axis per sweep via the scalar
// strategy knob), single wave. The graphs and seeds do not depend on the
// strategy, so only moves and messages differ between the rows.
TEST(CompiledAdversarySweep, WeakStrategiesSingleWave) {
  struct Row {
    ByzStrategy strategy;
    std::uint64_t t3_moves, t3_messages, t4_moves, t4_messages;
  };
  const Row rows[] = {
      {ByzStrategy::kCrash, 4004, 2418, 977, 918},
      {ByzStrategy::kRandomWalker, 201767, 200181, 15154, 15095},
      {ByzStrategy::kSquatter, 4010, 200181, 988, 15095},
      {ByzStrategy::kFakeSettler, 65381, 138819, 6652, 9420},
      {ByzStrategy::kSilentSettler, 4004, 2427, 977, 921},
      {ByzStrategy::kIntentSpammer, 201767, 595707, 15154, 43449},
      {ByzStrategy::kMapLiar, 102967, 793488, 8085, 57626},
  };
  ASSERT_EQ(std::size(rows), core::weak_strategies().size());
  for (const Row& r : rows) {
    SweepSpec spec;
    spec.algorithms = {Algorithm::kTournamentGathered,
                       Algorithm::kThreeGroupGathered};
    spec.families = {"er"};
    spec.sizes = {8};
    spec.strategy = r.strategy;
    spec.strategy_follows_algorithm = false;
    SCOPED_TRACE("strategy=" + core::to_string(r.strategy));
    expect_recorded(
        spec, {
                  {0x599dfae009daa90eULL, false, true, 65921, 65928,
                   r.t3_moves, r.t3_messages},
                  {0x6a64e4925e9a3147ULL, false, true, 14177, 14184,
                   r.t4_moves, r.t4_messages},
              });
  }
}

// The strong spoofer against its algorithm, and crash faults against the
// REAL (fully simulated) gathering extension — the two per-algorithm
// default adversaries the scalar sweeps above don't reach.
TEST(CompiledAdversarySweep, SpooferAndCrashDefaults) {
  SweepSpec spec;
  spec.algorithms = {Algorithm::kStrongGathered,
                     Algorithm::kCrashRealGathering};
  spec.families = {"er", "ring"};
  spec.sizes = {8};
  expect_recorded(
      spec, {
                {0x68ea8f25c55df03cULL, false, true, 4721, 4728, 2916, 80491},
                {0x594132cdfa360959ULL, false, true, 4721, 4728, 2980, 80492},
                {0x167a4948d7647326ULL, false, true, 14289, 14296, 1584, 1784},
                {0xaf75a3e2c33a303bULL, false, true, 14289, 14296, 1827, 1786},
            });
}

// Multi-wave k > n points: the Byzantine schedule gains charged windows
// from every later wave, so the interpreter's ChargeGate jumps and bulk
// replays are exercised against the recorded sleep pattern.
TEST(CompiledAdversarySweep, MultiWaveChargedWindows) {
  SweepSpec spec;
  spec.algorithms = {Algorithm::kTournamentGathered,
                     Algorithm::kThreeGroupGathered};
  spec.families = {"er"};
  spec.sizes = {6};
  spec.robot_counts = {6, 13};  // single wave and ceil(13/6) = 3 waves
  spec.strategy = ByzStrategy::kSquatter;
  spec.strategy_follows_algorithm = false;
  expect_recorded(
      spec, {
                {0xda76bbae39a5ef77ULL, false, true, 22133, 22140, 1698, 45372},
                {0x946fe31a0cdcffa1ULL, false, true, 48749, 48756, 724, 1020},
                {0x9a6df8664a2c9b93ULL, false, true, 6677, 6684, 579, 7236},
                {0x4395f3e4ef054d09ULL, false, true, 20045, 20052, 1245, 1166},
            });
}

// Heterogeneous mixes, including crash members inside an otherwise
// active adversary.
TEST(CompiledAdversarySweep, MixedAdversaries) {
  SweepSpec spec;
  spec.algorithms = {Algorithm::kTournamentGathered};
  spec.families = {"er", "grid"};
  spec.sizes = {8};
  spec.strategy_mixes = {
      {ByzStrategy::kSquatter, ByzStrategy::kCrash},
      {ByzStrategy::kMapLiar, ByzStrategy::kIntentSpammer,
       ByzStrategy::kFakeSettler},
  };
  spec.strategy_follows_algorithm = false;
  expect_recorded(
      spec,
      {
          {0xf4ea3eeff3efcbafULL, false, true, 65921, 65928, 3843, 68329},
          {0xbd0fab9a2c88ac52ULL, false, true, 65921, 65928, 125717, 508723},
          {0xd28d32c078015edaULL, false, true, 65921, 65928, 4263, 68243},
          {0xe89ad7bd5b79130cULL, false, true, 65921, 65928, 111106, 521368},
      });
}

/// Attaching any observer keeps the interpreter live every round.
struct NoopObserver final : sim::Observer {};

// Observed-vs-unobserved differential on multi-wave k > n scenarios with
// f > 0, where every Byzantine schedule carries the charged windows of
// the later waves: the observed run acts live every round, the unobserved
// one parks and replays, and they must agree on everything but
// simulated_rounds.
TEST(CompiledAdversarySweep, ObservedMatchesUnobservedMultiWave) {
  const std::pair<Algorithm, std::vector<ByzStrategy>> cases[] = {
      {Algorithm::kTournamentGathered, {ByzStrategy::kSquatter}},
      {Algorithm::kTournamentGathered,
       {ByzStrategy::kMapLiar, ByzStrategy::kFakeSettler}},
      {Algorithm::kThreeGroupGathered,
       {ByzStrategy::kRandomWalker, ByzStrategy::kSilentSettler,
        ByzStrategy::kIntentSpammer}},
      {Algorithm::kStrongGathered, {ByzStrategy::kSpoofer}},
  };
  constexpr std::uint32_t kN = 12, kK = 20;  // ceil(20/12) = 2 waves
  std::uint64_t parked_sim = 0, live_sim = 0;
  for (const auto& [alg, mix] : cases) {
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
      SCOPED_TRACE(core::to_string(alg) + " " + core::to_string(mix[0]) +
                   " seed=" + std::to_string(seed));
      Rng rng(seed);
      const Graph g = shuffle_ports(make_connected_er(kN, 0.45, rng), rng);
      core::ScenarioConfig cfg;
      cfg.algorithm = alg;
      cfg.num_robots = kK;
      cfg.num_byzantine = core::max_tolerated_f_k(alg, kN, kK);
      ASSERT_GT(cfg.num_byzantine, 0u);
      cfg.strategies = mix;
      cfg.seed = seed;
      const core::ScenarioResult parked = core::run_scenario(g, cfg);
      NoopObserver noop;
      cfg.observer = &noop;
      const core::ScenarioResult live = core::run_scenario(g, cfg);
      EXPECT_TRUE(parked.verify.ok()) << parked.verify.detail;
      EXPECT_EQ(live.verify.ok(), parked.verify.ok());
      EXPECT_EQ(live.stats.rounds, parked.stats.rounds);
      EXPECT_EQ(live.planned_rounds, parked.planned_rounds);
      EXPECT_EQ(live.stats.moves, parked.stats.moves);
      EXPECT_EQ(live.stats.messages, parked.stats.messages);
      EXPECT_GE(live.stats.simulated_rounds, parked.stats.simulated_rounds);
      parked_sim += parked.stats.simulated_rounds;
      live_sim += live.stats.simulated_rounds;
    }
  }
  // The grid must actually exercise replay, or the differential is vacuous.
  EXPECT_LT(parked_sim, live_sim);
}

// spec_fingerprint still mixes in the constant the retired
// adversary-path flag contributed at its default, so checkpoints written
// before the flag's removal keep resuming. Pinned to the values computed
// while the flag existed.
TEST(CompiledAdversarySweep, SpecFingerprintUnchanged) {
  SweepSpec spec;
  spec.algorithms = {Algorithm::kTournamentGathered};
  spec.families = {"er"};
  spec.sizes = {8};
  EXPECT_EQ(spec_fingerprint(spec), 0xc9c9a69691981a17ULL);

  SweepSpec other;
  other.algorithms = {Algorithm::kQuotient};
  other.families = {"ring"};
  other.sizes = {8};
  other.base_seed = 12345;
  other.common_graphs = true;
  other.require_trivial_quotient = true;
  other.er_edge_probability = 0.25;
  other.cost = gather::CostModel{/*scaled=*/false};
  other.byz_smallest_ids = false;
  other.measure_seconds = false;
  EXPECT_EQ(spec_fingerprint(other), 0xf0c04fa63a4e914eULL);
}

}  // namespace
}  // namespace bdg::run
