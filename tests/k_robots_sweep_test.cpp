// Conformance tier for the k-robots sweep axis (Theorem 8): sweeping the
// (k, n, f) frontier across families must agree point-for-point with
// core::k_dispersion_feasible — every feasible point runs and verifies the
// generalized Definition 1 cap ceil((k-f)/n), every infeasible point is a
// structured skip naming Theorem 8, and nothing crashes the sweep.
#include <gtest/gtest.h>

#include "core/impossibility.h"
#include "core/scenario.h"
#include "run/sweep.h"

namespace bdg::run {
namespace {

using core::Algorithm;

bool is_theorem8_skip(const PointResult& p) {
  return p.skipped && p.skip_reason.find("Theorem 8") != std::string::npos;
}

bool is_unsupported_k_skip(const PointResult& p) {
  return p.skipped &&
         p.skip_reason.find("does not support the k=") != std::string::npos;
}

// The frontier: k below, at, and above n, including every infeasible
// (k, n, f) combination (no clamping — the sweep must skip them itself).
TEST(KRobotsSweep, FrontierAgreesWithTheorem8Predicate) {
  SweepSpec spec;
  spec.algorithms = {Algorithm::kQuotient, Algorithm::kTournamentGathered,
                     Algorithm::kThreeGroupGathered};
  spec.families = {"er", "ring", "grid", "tree", "complete"};
  spec.sizes = {6};
  spec.robot_counts = {3, 5, 6, 9, 12, 13};
  spec.byzantine_counts = {0, 1, 2, 4};
  spec.clamp_f_to_tolerance = false;  // probe the infeasible region on purpose
  spec.measure_seconds = false;

  const SweepResult result = run_sweep(spec);
  ASSERT_FALSE(result.points.empty());
  std::size_t feasible_ran = 0, infeasible_skipped = 0;
  for (const PointResult& p : result.points) {
    const std::uint32_t k = p.point.k;
    SCOPED_TRACE(core::to_string(p.point.algorithm) + " on " + p.point.family +
                 " n=" + std::to_string(p.point.n) + " k=" + std::to_string(k) +
                 " f=" + std::to_string(p.point.f));
    if (p.point.f >= k) {
      // Degenerate coordinates (no honest robot): skipped before the
      // Theorem 8 gate even gets asked.
      EXPECT_TRUE(p.skipped);
      continue;
    }
    const bool feasible =
        core::k_dispersion_feasible(k, p.point.n, p.point.f);
    if (!feasible) {
      // Infeasible points are structured skips naming Theorem 8 — never
      // executed, never failures.
      EXPECT_TRUE(is_theorem8_skip(p)) << "skip_reason: " << p.skip_reason;
      ++infeasible_skipped;
      continue;
    }
    EXPECT_FALSE(is_theorem8_skip(p))
        << "feasible point skipped as infeasible: " << p.skip_reason;
    if (p.skipped) {
      // The only legitimate feasible skips on this grid: an algorithm that
      // does not take the k axis at this (k, n) — consistent with the
      // published predicate — or Theorem 1 lacking a trivial-quotient
      // sample off the er family.
      if (is_unsupported_k_skip(p)) {
        EXPECT_FALSE(algorithm_supports_k(p.point.algorithm, k, p.point.n));
      } else {
        EXPECT_TRUE(p.point.algorithm == Algorithm::kQuotient &&
                    p.point.family != "er")
            << "unexpected skip: " << p.skip_reason;
      }
      continue;
    }
    EXPECT_TRUE(algorithm_supports_k(p.point.algorithm, k, p.point.n));
    // Feasible and supported: the point must have run (Theorem 8 says
    // dispersion is possible, so the sweep may not rule it out), and
    // within the algorithm's claimed tolerance it must verify the
    // generalized Definition 1 (at most ceil((k-f)/n) honest robots per
    // node, all honest robots terminated). Past the claim the outcome is
    // the algorithm's business — the unclamped grid probes there on
    // purpose, and a failure is a recorded result, not a crash.
    if (p.point.f <=
        core::max_tolerated_f_k(p.point.algorithm, p.point.n, k)) {
      EXPECT_TRUE(p.ok) << p.detail;
    }
    ++feasible_ran;
  }
  EXPECT_GT(feasible_ran, 0u) << "frontier sweep never ran a feasible point";
  EXPECT_GT(infeasible_skipped, 0u)
      << "frontier sweep never reached the infeasible region";
}

// k < n: every k-capable algorithm disperses undersubscribed instances at
// its clamped tolerance, across families.
TEST(KRobotsSweep, UndersubscribedInstancesDisperse) {
  SweepSpec spec;
  spec.algorithms = {Algorithm::kQuotient, Algorithm::kTournamentArbitrary,
                     Algorithm::kTournamentGathered,
                     Algorithm::kThreeGroupGathered,
                     Algorithm::kCrashRealGathering};
  spec.families = {"er", "complete"};
  spec.sizes = {8};
  spec.robot_counts = {3, 5, 7};
  spec.seeds = {1, 2};
  spec.measure_seconds = false;
  const SweepResult result = run_sweep(spec);
  std::size_t ran = 0;
  for (const PointResult& p : result.points) {
    SCOPED_TRACE(core::to_string(p.point.algorithm) +
                 " k=" + std::to_string(p.point.k) +
                 " f=" + std::to_string(p.point.f) + " on " + p.point.family);
    ASSERT_FALSE(p.skipped) << p.skip_reason;
    EXPECT_TRUE(p.ok) << p.detail;
    ++ran;
  }
  EXPECT_EQ(ran, result.points.size());
  EXPECT_GT(ran, 0u);
}

// k > n: wave scheduling meets the generalized cap at the clamped
// tolerance (feasible by construction), with Byzantine interference.
TEST(KRobotsSweep, OversubscribedWavesDisperse) {
  SweepSpec spec;
  spec.algorithms = {Algorithm::kQuotient, Algorithm::kTournamentGathered,
                     Algorithm::kThreeGroupGathered};
  spec.families = {"er", "ring"};
  spec.sizes = {6};
  spec.robot_counts = {9, 12};
  spec.seeds = {1, 2};
  spec.measure_seconds = false;
  const SweepResult result = run_sweep(spec);
  std::size_t ran = 0;
  for (const PointResult& p : result.points) {
    SCOPED_TRACE(core::to_string(p.point.algorithm) +
                 " k=" + std::to_string(p.point.k) +
                 " f=" + std::to_string(p.point.f) + " on " + p.point.family);
    if (p.skipped) {
      // Theorem 1 may lack a trivial-quotient sample off er; everything
      // else must run.
      EXPECT_TRUE(p.point.algorithm == Algorithm::kQuotient &&
                  p.point.family != "er")
          << "unexpected skip: " << p.skip_reason;
      continue;
    }
    EXPECT_TRUE(p.ok) << p.detail;
    ++ran;
  }
  EXPECT_GT(ran, 0u);
}

// The k axis defaults (robot_counts empty, or explicit 0 / n entries)
// collapse onto the Table 1 grid: same derived seeds, same results.
TEST(KRobotsSweep, DefaultKMatchesLegacyGrid) {
  SweepSpec legacy;
  legacy.algorithms = {Algorithm::kThreeGroupGathered};
  legacy.families = {"er"};
  legacy.sizes = {8};
  legacy.seeds = {1, 2};
  legacy.measure_seconds = false;
  SweepSpec explicit_k = legacy;
  explicit_k.robot_counts = {0, 8};  // both spellings of "k = n"
  const SweepResult a = run_sweep(legacy);
  const SweepResult b = run_sweep(explicit_k);
  ASSERT_EQ(a.points.size(), b.points.size());  // 0 and 8 dedupe to one
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].derived_seed, b.points[i].derived_seed);
    EXPECT_EQ(a.points[i].ok, b.points[i].ok);
    EXPECT_EQ(a.points[i].stats.rounds, b.points[i].stats.rounds);
    EXPECT_EQ(a.points[i].stats.moves, b.points[i].stats.moves);
    EXPECT_EQ(b.points[i].point.k, 8u);
  }
}

// run_scenario's own k plumbing: the generalized verifier is used, and an
// infeasible configuration run directly (the sweep would have skipped it)
// reports a violated cap instead of crashing.
TEST(KRobotsSweep, ScenarioLevelKRuns) {
  const auto g = build_family_graph("er", 6, 99);
  ASSERT_TRUE(g.has_value());
  core::ScenarioConfig cfg;
  cfg.algorithm = core::Algorithm::kTournamentGathered;
  cfg.num_robots = 9;  // waves = 2, cap = ceil(9/6) = 2
  cfg.num_byzantine = 0;
  cfg.seed = 5;
  const core::ScenarioResult res = core::run_scenario(*g, cfg);
  EXPECT_TRUE(res.verify.ok()) << res.verify.detail;
  EXPECT_EQ(res.verify.honest_count, 9u);
  EXPECT_LE(res.verify.worst_node_load, 2u);
}

// max_tolerated_f_k: reduces to the Table 1 tolerance at k = n, respects
// the robot count below n, and never exceeds the Theorem 8 feasibility
// residue above n.
TEST(KRobotsSweep, GeneralizedToleranceBounds) {
  for (const Algorithm a :
       {Algorithm::kQuotient, Algorithm::kTournamentGathered,
        Algorithm::kThreeGroupGathered, Algorithm::kStrongGathered}) {
    SCOPED_TRACE(core::to_string(a));
    EXPECT_EQ(core::max_tolerated_f_k(a, 8, 8), core::max_tolerated_f(a, 8));
    EXPECT_EQ(core::max_tolerated_f_k(a, 8, 0), core::max_tolerated_f(a, 8));
    // k < n: bounded by the robot population, not the graph.
    EXPECT_LE(core::max_tolerated_f_k(a, 12, 4), 3u);
    // k > n: the clamped f always stays Theorem 8-feasible.
    for (const std::uint32_t k : {9u, 12u, 16u, 17u}) {
      const std::uint32_t f = core::max_tolerated_f_k(a, 8, k);
      if (f < k) {
        EXPECT_TRUE(core::k_dispersion_feasible(k, 8, f))
            << "k=" << k << " f=" << f;
      }
    }
  }
}

// Past n = 2^31, ceil(k / n) used to wrap in 32 bits to 0 waves and the
// next division raised SIGFPE. At k = n every algorithm must still reduce
// to its Table 1 tolerance.
TEST(KRobotsSweep, ToleranceAtNPastTwoToThe31) {
  constexpr std::uint32_t kHuge = 3000000000u;
  for (const Algorithm a :
       {Algorithm::kQuotient, Algorithm::kTournamentArbitrary,
        Algorithm::kSqrtArbitrary, Algorithm::kTournamentGathered,
        Algorithm::kThreeGroupGathered, Algorithm::kStrongArbitrary,
        Algorithm::kStrongGathered, Algorithm::kCrashRealGathering,
        Algorithm::kRingBaseline}) {
    SCOPED_TRACE(core::to_string(a));
    EXPECT_EQ(core::max_tolerated_f_k(a, kHuge, kHuge),
              core::max_tolerated_f(a, kHuge));
    EXPECT_EQ(core::max_tolerated_f_k(a, kHuge, 0),
              core::max_tolerated_f(a, kHuge));
  }
}

}  // namespace
}  // namespace bdg::run
