#include "workloads.h"

#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

using bdg::core::Algorithm;
using bdg::run::QueryRequest;
using bdg::run::SweepSpec;

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<std::uint32_t> sizes(std::uint32_t lo, std::uint32_t hi,
                                 std::uint32_t step) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t n = lo; n <= hi; n += step) out.push_back(n);
  return out;
}

/// One sweep thread, wall-clock on, and every random choice (graphs, robot
/// IDs, Byzantine placement) drawn from the workload seed via base_seed.
SweepSpec base_spec(std::uint64_t& rng) {
  SweepSpec s;
  s.threads = 1;
  s.measure_seconds = true;
  s.base_seed = splitmix(rng);
  return s;
}

/// A cheap grid over every family: per-point fixed costs (graph sampling
/// with trivial-quotient resampling, quotient refinement, checkpoint
/// append, aggregation) dominate. The k values other than 0 (= n) run the
/// wave scheduler when k > n, undersubscribed instances when k < n, and
/// Theorem 8 structured skips where (k, n, f) is infeasible.
SweepSpec wide_spec(std::uint64_t& rng, std::uint32_t max_n) {
  SweepSpec s = base_spec(rng);
  s.algorithms = {Algorithm::kQuotient, Algorithm::kRingBaseline};
  s.families = bdg::run::known_families();
  s.sizes = sizes(8, max_n, 4);
  s.robot_counts = {0, 6, 20, 44};
  s.seeds = {1, 2};
  return s;
}

/// `count` queries against `spec`'s grid. The kinds are the ones the repo
/// documents for sweep_query (README live-query section, CI sweepd-smoke):
/// progress polls, cells filtered by algorithm and f, point lookup by
/// derived seed, and the unfiltered cells dump. The proportions, 5/8
/// progress and 1/8 each of the others, are an assumption (a client that
/// mostly polls progress and now and then pulls aggregates); no usage data
/// backs them. They are exact for every seed and every multiple of 8
/// queries: drawing kinds independently would let a seed's share of the
/// costly dumps, and with it the mean latency, swing by a sixth. The seed
/// picks the order and the selectors.
std::vector<QueryRequest> query_mix(const SweepSpec& spec, std::uint64_t& rng,
                                    std::size_t count) {
  const std::vector<bdg::run::SweepPoint> grid = bdg::run::expand_grid(spec);
  std::vector<std::size_t> slots(count);
  for (std::size_t i = 0; i < count; ++i) slots[i] = i % 8;
  for (std::size_t i = count; i > 1; --i)
    std::swap(slots[i - 1], slots[splitmix(rng) % i]);
  std::vector<QueryRequest> out;
  out.reserve(count);
  for (const std::size_t slot : slots) {
    QueryRequest q;
    switch (slot) {
      case 5: {
        const bdg::run::SweepPoint& p = grid[splitmix(rng) % grid.size()];
        q.what = "cells";
        q.algorithm = bdg::core::to_string(p.algorithm);
        q.f = p.f;
        break;
      }
      case 6:
        q.what = "cells";  // no selector: every cell
        break;
      case 7:
        q.what = "point";
        q.derived_seed = bdg::run::point_seed(
            spec.base_seed, grid[splitmix(rng) % grid.size()]);
        break;
      default:
        q.what = "progress";
        break;
    }
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"sweep_heavy", "sweep_wide",
                                                  "service_query"};
  return kNames;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  std::uint64_t rng = seed;
  if (name == "sweep_heavy") {
    // A few expensive adversarial points: the engine core and the protocol
    // modules dominate; graph sampling is a rounding error here. Three
    // instances per algorithm at n=24 rather than one at n=32: a single
    // tournament instance's work swings by a third from seed to seed, and
    // averaging three keeps points_per_s comparable across seeds at the
    // same cost per repetition.
    SweepSpec s = base_spec(rng);
    s.algorithms = {Algorithm::kThreeGroupGathered,
                    Algorithm::kTournamentGathered,
                    Algorithm::kTournamentArbitrary,
                    Algorithm::kStrongGathered,
                    Algorithm::kStrongArbitrary,
                    Algorithm::kCrashRealGathering};
    s.families = {"er"};
    s.sizes = {24};
    s.seeds = {1, 2, 3};
    // Tournaments face fake_settler; the strong algorithms get spoofer and
    // crash-real gathering crash (strategy_follows_algorithm).
    s.strategy = bdg::core::ByzStrategy::kFakeSettler;
    s.strategy_overrides = {
        {Algorithm::kThreeGroupGathered, bdg::core::ByzStrategy::kMapLiar}};
    w.grids.push_back(std::move(s));
  } else if (name == "sweep_wide") {
    w.grids.push_back(wide_spec(rng, 64));
    // sqrt-arbitrary only at small n: its two-group split grows fast.
    SweepSpec s = base_spec(rng);
    s.algorithms = {Algorithm::kSqrtArbitrary};
    s.families = bdg::run::known_families();
    s.sizes = {8, 12, 16};
    s.robot_counts = {0, 6, 20};
    s.seeds = {1, 2};
    w.grids.push_back(std::move(s));
  } else if (name == "service_query") {
    w.grids.push_back(wide_spec(rng, 40));
    w.service = true;
    w.restore_every = 4;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.queries = query_mix(w.grids[0], rng, kQueryMixLength);
  return w;
}

int query_kind(const bdg::run::QueryRequest& q) {
  if (q.what == "point") return 3;
  if (q.what != "cells") return 0;
  const bool filtered = q.algorithm || q.family || q.mix || q.n || q.k || q.f;
  return filtered ? 1 : 2;
}

}  // namespace perfbench
