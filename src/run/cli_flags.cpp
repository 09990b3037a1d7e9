#include "run/cli_flags.h"

#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "net/transport.h"
#include "run/report.h"

namespace bdg::run {
namespace {

/// Largest node count (--sizes) or robot count (--k) any sweep front-end
/// accepts. It admits every committed baseline and bench size and a
/// 100,000-node ring; a larger value exits 2 at parse time, before any
/// graph or robot is allocated.
constexpr std::uint64_t kMaxNodesOrRobots = 1000000;

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep))
    if (!item.empty()) out.push_back(item);
  return out;
}

constexpr struct {
  const char* name;
  core::ByzStrategy strategy;
} kStrategies[] = {
    {"crash", core::ByzStrategy::kCrash},
    {"random_walker", core::ByzStrategy::kRandomWalker},
    {"squatter", core::ByzStrategy::kSquatter},
    {"fake_settler", core::ByzStrategy::kFakeSettler},
    {"silent_settler", core::ByzStrategy::kSilentSettler},
    {"intent_spammer", core::ByzStrategy::kIntentSpammer},
    {"map_liar", core::ByzStrategy::kMapLiar},
    {"spoofer", core::ByzStrategy::kSpoofer},
};

bool write_report(const char* prog, const std::string& path,
                  const SweepResult& result,
                  void (*write)(std::ostream&, const SweepResult&)) {
  if (path == "-") {
    write(std::cout, result);
    return true;
  }
  std::ofstream os(path);
  write(os, result);
  os.flush();
  if (!os) std::fprintf(stderr, "%s: cannot write %s\n", prog, path.c_str());
  return static_cast<bool>(os);
}

}  // namespace

std::optional<std::string> value_of(const std::string& arg, const char* flag) {
  const std::size_t len = std::strlen(flag);
  if (arg.compare(0, len, flag) == 0 && arg.size() > len && arg[len] == '=')
    return arg.substr(len + 1);
  return std::nullopt;
}

std::uint64_t parse_unsigned(const std::string& text, const char* flag,
                             std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  // from_chars takes no sign for an unsigned type, so "-5" and "+5" fail
  // here instead of wrapping the way stoul does.
  if (text.empty() || ec == std::errc::invalid_argument || ptr != end)
    throw std::invalid_argument(std::string(flag) + ": '" + text +
                                "' is not an unsigned decimal number");
  if (ec == std::errc::result_out_of_range || value > max)
    throw std::invalid_argument(std::string(flag) + ": " + text +
                                " is out of range (max " +
                                std::to_string(max) + ")");
  return value;
}

SweepSpec default_cli_spec() {
  SweepSpec spec;
  spec.families = {"er"};
  spec.sizes = {8, 12, 16};
  return spec;
}

const std::vector<CliAlgorithm>& cli_algorithms() {
  static const std::vector<CliAlgorithm> kList = {
      {"quotient", core::Algorithm::kQuotient},
      {"tournament-arbitrary", core::Algorithm::kTournamentArbitrary},
      {"sqrt-arbitrary", core::Algorithm::kSqrtArbitrary},
      {"tournament-gathered", core::Algorithm::kTournamentGathered},
      {"three-group", core::Algorithm::kThreeGroupGathered},
      {"strong-arbitrary", core::Algorithm::kStrongArbitrary},
      {"strong-gathered", core::Algorithm::kStrongGathered},
      {"crash-real-gathering", core::Algorithm::kCrashRealGathering},
      {"ring-baseline", core::Algorithm::kRingBaseline},
  };
  return kList;
}

std::optional<core::Algorithm> algorithm_from_cli(const std::string& name) {
  for (const auto& a : cli_algorithms())
    if (name == a.name) return a.algorithm;
  return std::nullopt;
}

GridFlagsResult parse_grid_flags(int argc, char** argv, SweepSpec& spec) {
  GridFlagsResult res;
  const auto fail = [&res](std::string message) {
    res.ok = false;
    res.error = std::move(message);
    return res;
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (auto v = value_of(arg, "--algorithms")) {
        for (const std::string& name : split(*v, ',')) {
          if (name == "all") {
            for (const auto& a : cli_algorithms())
              spec.algorithms.push_back(a.algorithm);
            continue;
          }
          const auto a = algorithm_from_cli(name);
          if (!a) return fail("unknown algorithm '" + name + "'");
          spec.algorithms.push_back(*a);
        }
      } else if (auto v = value_of(arg, "--families")) {
        spec.families.clear();
        for (const std::string& name : split(*v, ',')) {
          if (name == "all") {
            const auto& known = known_families();
            spec.families.insert(spec.families.end(), known.begin(),
                                 known.end());
          } else {
            spec.families.push_back(name);  // expand_grid validates
          }
        }
      } else if (auto v = value_of(arg, "--sizes")) {
        spec.sizes.clear();
        for (const std::string& n : split(*v, ','))
          spec.sizes.push_back(static_cast<std::uint32_t>(
              parse_unsigned(n, "--sizes", kMaxNodesOrRobots)));
      } else if (auto v = value_of(arg, "--k")) {
        for (const std::string& k : split(*v, ','))
          spec.robot_counts.push_back(static_cast<std::uint32_t>(
              parse_unsigned(k, "--k", kMaxNodesOrRobots)));
      } else if (auto v = value_of(arg, "--byz")) {
        for (const std::string& f : split(*v, ','))
          spec.byzantine_counts.push_back(
              parse_unsigned<std::uint32_t>(f, "--byz"));
      } else if (auto v = value_of(arg, "--seeds")) {
        spec.seeds.clear();
        for (const std::string& s : split(*v, ','))
          spec.seeds.push_back(parse_unsigned<std::uint64_t>(s, "--seeds"));
      } else if (auto v = value_of(arg, "--strategy")) {
        const auto s = core::strategy_from_string(*v);
        if (!s) return fail("unknown strategy '" + *v + "'");
        spec.strategy = *s;
        spec.strategy_follows_algorithm = false;
      } else if (auto v = value_of(arg, "--mix")) {
        for (const std::string& text : split(*v, ',')) {
          const auto mix = mix_from_string(text);
          if (!mix) return fail("unknown strategy in mix '" + text + "'");
          spec.strategy_mixes.push_back(*mix);
        }
      } else if (auto v = value_of(arg, "--shard")) {
        const std::size_t slash = v->find('/');
        if (slash == std::string::npos)
          return fail("--shard wants i/m, got '" + *v + "'");
        spec.shard_index =
            parse_unsigned<unsigned>(v->substr(0, slash), "--shard");
        spec.shard_count =
            parse_unsigned<unsigned>(v->substr(slash + 1), "--shard");
        if (spec.shard_count == 0 || spec.shard_index >= spec.shard_count)
          return fail("--shard needs i < m, got '" + *v + "'");
      } else if (auto v = value_of(arg, "--resume")) {
        spec.checkpoint_path = *v;
      } else if (arg == "--no-timing") {
        spec.measure_seconds = false;
      } else if (arg == "--no-clamp") {
        spec.clamp_f_to_tolerance = false;
      } else if (arg == "--require-trivial-quotient") {
        spec.require_trivial_quotient = true;
      } else if (arg == "--common-graphs") {
        spec.common_graphs = true;
      } else if (auto v = value_of(arg, "--er-p")) {
        std::size_t used = 0;
        spec.er_edge_probability = std::stod(*v, &used);
        if (used != v->size())
          return fail("--er-p: '" + *v + "' is not a number");
      } else if (auto v = value_of(arg, "--base-seed")) {
        spec.base_seed = parse_unsigned<std::uint64_t>(*v, "--base-seed");
      } else if (auto v = value_of(arg, "--threads")) {
        spec.threads = parse_unsigned<unsigned>(*v, "--threads");
      } else {
        res.leftover.push_back(arg);
      }
    }
  } catch (const std::exception& e) {
    // parse_unsigned and stod throw on malformed numbers: a usage error.
    return fail(std::string("bad flag value (") + e.what() + ")");
  }
  return res;
}

void apply_default_algorithms(SweepSpec& spec) {
  if (!spec.algorithms.empty()) return;
  // General-graph default: every algorithm except the ring-only baseline.
  for (const auto& a : cli_algorithms())
    if (a.algorithm != core::Algorithm::kRingBaseline)
      spec.algorithms.push_back(a.algorithm);
}

void print_grid_flag_help(std::FILE* to) {
  std::fputs(
      "grid:\n"
      "  --algorithms=a,b,...   algorithms to sweep, or 'all' (default: all\n"
      "                         general-graph algorithms, no ring-baseline)\n"
      "  --families=f,g,...     graph families, or 'all' (default: er)\n"
      "  --sizes=n1,n2,...      node counts (default: 8,12,16)\n"
      "  --k=k1,k2,...          robot counts (Theorem 8 axis; default: k=n;\n"
      "                         0 means k=n; infeasible (k,n,f) points are\n"
      "                         recorded as structured skips)\n"
      "  --byz=f1,f2,...        Byzantine counts (default: per-algorithm\n"
      "                         maximum claimed tolerance)\n"
      "  --seeds=s1,s2,...      grid seeds, one repetition each (default: 1)\n"
      "scenario:\n"
      "  --strategy=name        fixed adversary for all algorithms (default:\n"
      "                         per-algorithm as the e2e suite chooses)\n"
      "  --mix=a+b,c+d,...      heterogeneous adversary mixes ('+'-joined\n"
      "                         strategy names; each mix adds a grid axis).\n"
      "                         A mix is a multiset: it is canonicalized\n"
      "                         (sorted), then Byzantine robot i runs\n"
      "                         mix[i %% len] of the canonical order\n"
      "  --no-clamp             keep f values beyond an algorithm's tolerance\n"
      "  --require-trivial-quotient  restrict graphs to all-distinct views\n"
      "  --common-graphs        share the graph across algorithms and f per\n"
      "                         (family, n, seed) cell\n"
      "  --er-p=P               ER edge probability (<=0: connectivity\n"
      "                         threshold; default 0.45)\n"
      "  --base-seed=S          reseed the whole sweep\n"
      "execution:\n"
      "  --threads=N            worker threads (default: hardware)\n"
      "  --shard=i/m            run only stripe i of m of the grid (union\n"
      "                         of all stripes = the full grid)\n"
      "  --resume=PATH          JSON-lines checkpoint: completed points are\n"
      "                         loaded instead of re-run, new ones appended\n"
      "  --no-timing            zero all seconds fields: reports become a\n"
      "                         pure function of the grid (resume/shard and\n"
      "                         distributed conformance diffs run in this\n"
      "                         mode)\n",
      to);
}

void print_grid_name_lists(std::FILE* to) {
  std::fputs("algorithm names:\n", to);
  for (const auto& a : cli_algorithms()) std::fprintf(to, "  %s\n", a.name);
  std::fputs("strategy names:\n", to);
  for (const auto& s : kStrategies) std::fprintf(to, "  %s\n", s.name);
}

void parse_host_port(const std::string& text, std::string& host,
                     std::uint16_t& port) {
  const std::size_t colon = text.rfind(':');
  const bool bare = colon == std::string::npos;
  const std::string host_part = bare ? "127.0.0.1" : text.substr(0, colon);
  if (!net::is_ipv4_address(host_part))
    throw std::invalid_argument("--connect: host '" + host_part +
                                "' is not a dotted IPv4 address");
  const auto value = parse_unsigned<std::uint16_t>(
      bare ? text : text.substr(colon + 1), "--connect");
  if (value == 0) throw std::invalid_argument("--connect: port 0");
  host = host_part;
  port = value;
}

bool parse_report_flag(const std::string& arg, ReportFlags& out) {
  if (auto v = value_of(arg, "--points-csv"))
    out.points_csv = *v;
  else if (auto v = value_of(arg, "--cells-csv"))
    out.cells_csv = *v;
  else if (auto v = value_of(arg, "--json"))
    out.json = *v;
  else if (arg == "--quiet")
    out.quiet = true;
  else
    return false;
  return true;
}

void print_report_flag_help(std::FILE* to) {
  std::fputs(
      "output:\n"
      "  --points-csv=PATH      per-point CSV ('-' = stdout)\n"
      "  --cells-csv=PATH       per-cell aggregate CSV ('-' = stdout)\n"
      "  --json=PATH            full JSON report ('-' = stdout)\n"
      "  --quiet                suppress the summary line\n",
      to);
}

int finish_sweep(const char* prog, const SweepResult& result,
                 const ReportFlags& out, const std::string& detail) {
  bool write_ok = true;
  if (!out.points_csv.empty())
    write_ok &= write_report(prog, out.points_csv, result, write_points_csv);
  if (!out.cells_csv.empty())
    write_ok &= write_report(prog, out.cells_csv, result, write_cells_csv);
  if (!out.json.empty())
    write_ok &= write_report(prog, out.json, result, write_json);
  if (out.points_csv.empty() && out.cells_csv.empty() && out.json.empty())
    write_points_csv(std::cout, result);

  std::size_t failed = 0;
  std::size_t saturated = 0;
  const PointResult* first_saturated = nullptr;
  for (const PointResult& p : result.points) {
    if (!p.skipped && !p.ok) ++failed;
    if (p.saturated) {
      ++saturated;
      if (first_saturated == nullptr) first_saturated = &p;
    }
  }
  if (!out.quiet) {
    std::fprintf(stderr,
                 "[%s: %zu points, %zu skipped, %zu failed, "
                 "%zu from checkpoint%s%s, %.2fs]\n",
                 prog, result.points.size(), result.skipped(), failed,
                 result.from_checkpoint, result.aborted ? ", ABORTED" : "",
                 detail.c_str(), result.wall_seconds);
    if (result.torn_checkpoint_lines != 0)
      std::fprintf(stderr,
                   "[%s: %zu torn checkpoint line(s) skipped and "
                   "re-run — a previous run crashed mid-append]\n",
                   prog, result.torn_checkpoint_lines);
  }
  if (saturated != 0) {
    // Reject the grid loudly, before any other verdict: a bound past
    // 2^128-1 cannot be swept, and a skip row alone is invisible when
    // --progress is off.
    std::fprintf(stderr,
                 "%s: %zu grid point(s) exceed 128-bit round "
                 "accounting; first offender: (%s, n=%u, f=%u). Shrink the "
                 "grid (or the cost model) below the saturation frontier.\n",
                 prog, saturated,
                 core::to_string(first_saturated->point.algorithm).c_str(),
                 first_saturated->point.n, first_saturated->point.f);
    return 4;
  }
  if (failed != 0 || !write_ok) return 1;
  return result.aborted ? 3 : 0;
}

}  // namespace bdg::run
