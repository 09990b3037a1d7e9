// dispersion_cli — run any scenario from the command line.
//
//   dispersion_cli [--algo=T1|T2|T3|T4|T5|T6|T7|EXT|RING] [--graph=er|ring|grid|
//                  torus|tree|regular|hypercube|complete] [--n=12] [--f=-1]
//                  [--strategy=NAME] [--seed=1] [--theory-cost] [--trace]
//                  [--graph-file=path.bdg1]
//
// f = -1 (default) uses the algorithm's maximum claimed tolerance.
// --theory-cost charges the paper's cited bounds verbatim (X(n) = n^5)
// instead of the scaled covering-walk model.
//
// Exit codes: 0 dispersed, 1 not dispersed, 2 bad input (unknown flag or
// name, malformed number, unreadable graph file, or a scenario the
// algorithm rejects).
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include <fstream>

#include "core/scenario.h"
#include "graph/generators.h"
#include "graph/serialize.h"
#include "graph/quotient.h"
#include "sim/trace.h"

namespace {

using namespace bdg;

struct Options {
  std::string algo = "T4";
  std::string graph = "er";
  std::string strategy = "fake_settler";
  std::uint32_t n = 12;
  std::int64_t f = -1;
  std::uint64_t seed = 1;
  bool theory_cost = false;
  bool trace = false;
  std::string graph_file;  // bdg1 file overriding --graph/--n
};

bool parse_arg(Options& opt, const std::string& arg) {
  auto value = [&](const char* key) -> const char* {
    const std::size_t len = std::strlen(key);
    if (arg.rfind(key, 0) == 0) return arg.c_str() + len;
    return nullptr;
  };
  if (const char* v = value("--algo=")) return (opt.algo = v, true);
  if (const char* v = value("--graph-file=")) return (opt.graph_file = v, true);
  if (const char* v = value("--graph=")) return (opt.graph = v, true);
  if (const char* v = value("--strategy=")) return (opt.strategy = v, true);
  if (const char* v = value("--n=")) return (opt.n = std::stoul(v), true);
  if (const char* v = value("--f=")) return (opt.f = std::stol(v), true);
  if (const char* v = value("--seed=")) return (opt.seed = std::stoull(v), true);
  if (arg == "--theory-cost") return (opt.theory_cost = true, true);
  if (arg == "--trace") return (opt.trace = true, true);
  return false;
}

core::Algorithm parse_algo(const std::string& s) {
  if (s == "T1") return core::Algorithm::kQuotient;
  if (s == "T2") return core::Algorithm::kTournamentArbitrary;
  if (s == "T3") return core::Algorithm::kTournamentGathered;
  if (s == "T4") return core::Algorithm::kThreeGroupGathered;
  if (s == "T5") return core::Algorithm::kSqrtArbitrary;
  if (s == "T6") return core::Algorithm::kStrongGathered;
  if (s == "T7") return core::Algorithm::kStrongArbitrary;
  if (s == "EXT") return core::Algorithm::kCrashRealGathering;
  if (s == "RING") return core::Algorithm::kRingBaseline;
  throw std::invalid_argument("unknown --algo " + s);
}

core::ByzStrategy parse_strategy(const std::string& s) {
  for (const auto strat : core::weak_strategies())
    if (core::to_string(strat) == s) return strat;
  if (s == "spoofer") return core::ByzStrategy::kSpoofer;
  throw std::invalid_argument("unknown --strategy " + s);
}

Graph build_graph(const Options& opt, Rng& rng) {
  if (!opt.graph_file.empty()) {
    std::ifstream in(opt.graph_file);
    if (!in) throw std::invalid_argument("cannot open " + opt.graph_file);
    return read_graph(in);
  }
  const std::size_t n = opt.n;
  if (opt.graph == "ring") return shuffle_ports(make_ring(n), rng);
  if (opt.graph == "grid") {
    std::size_t r = 2;
    while (r * r < n) ++r;
    return make_grid(r, (n + r - 1) / r);
  }
  if (opt.graph == "torus") {
    std::size_t r = 3;
    while (r * r < n) ++r;
    return make_torus(r, r);
  }
  if (opt.graph == "tree") return make_random_tree(n, rng);
  if (opt.graph == "regular")
    return make_random_regular(n + (n * 3 % 2), 3, rng);
  if (opt.graph == "hypercube") {
    std::size_t d = 1;
    while ((std::size_t{1} << d) < n) ++d;
    return make_hypercube(d);
  }
  if (opt.graph == "complete") return make_complete(n);
  return shuffle_ports(make_connected_er(n, 0.0, rng), rng);
}

/// Build and run the scenario `opt` describes, then print its report.
/// Bad input throws (see main).
int run(const Options& opt) {
  Rng rng(opt.seed * 77 + 1);
  const Graph g = build_graph(opt, rng);

  core::ScenarioConfig cfg;
  cfg.algorithm = parse_algo(opt.algo);
  cfg.strategy = parse_strategy(opt.strategy);
  cfg.seed = opt.seed;
  cfg.cost = gather::CostModel{!opt.theory_cost};
  const auto n = static_cast<std::uint32_t>(g.n());
  cfg.num_byzantine = opt.f < 0 ? core::max_tolerated_f(cfg.algorithm, n)
                                : static_cast<std::uint32_t>(opt.f);

  sim::TraceRecorder trace;
  if (opt.trace) cfg.observer = &trace;
  // Run before printing anything, so a rejected scenario leaves no
  // partial report on stdout.
  const core::ScenarioResult res = core::run_scenario(g, cfg);

  std::printf("graph: %s n=%u m=%zu (trivial quotient: %s)\n",
              opt.graph.c_str(), n, g.m(),
              has_trivial_quotient(g) ? "yes" : "no");
  std::printf("algorithm: %s   f=%u   strategy=%s   cost=%s\n",
              core::to_string(cfg.algorithm).c_str(), cfg.num_byzantine,
              core::to_string(cfg.strategy).c_str(),
              opt.theory_cost ? "theory" : "scaled");
  std::printf("rounds=%s simulated=%llu moves=%llu messages=%llu\n",
              res.stats.rounds.to_string().c_str(),
              static_cast<unsigned long long>(res.stats.simulated_rounds),
              static_cast<unsigned long long>(res.stats.moves),
              static_cast<unsigned long long>(res.stats.messages));
  std::printf("dispersed: %s%s%s\n", res.verify.ok() ? "YES" : "NO",
              res.verify.detail.empty() ? "" : "  — ",
              res.verify.detail.c_str());

  if (opt.trace) {
    std::printf("\nper-robot activity (true IDs; message counts are per "
                "claimed ID):\n");
    for (const auto& [id, a] : trace.per_robot()) {
      std::printf("  robot %-6llu moves=%-7llu msgs=%-8llu done@%s\n",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(a.moves),
                  static_cast<unsigned long long>(a.messages),
                  a.done_round.to_string().c_str());
    }
  }
  return res.verify.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options opt;
    for (int i = 1; i < argc; ++i) {
      if (!parse_arg(opt, argv[i])) {
        std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
        return 2;
      }
    }
    return run(opt);
  } catch (const std::exception& e) {
    // Bad input surfaces as an exception: a malformed number, an unknown
    // --algo/--strategy, an unreadable --graph-file, or a scenario the
    // algorithm rejects (the spoofer on a weak-only algorithm, the ring
    // baseline off a ring). Report it as a usage error, like an unknown
    // flag, instead of aborting.
    std::fprintf(stderr, "dispersion_cli: %s\n", e.what());
    return 2;
  }
}
