// perfbench: the end-to-end benchmark program (see ../README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <dir> [--source <id>]
//
// With --trace 0 it measures the end-to-end metrics with no tracing at
// all; with --trace 1 it alternates untraced repetitions with traced ones
// (spans around every public call the benchmark makes) and reports the
// per-layer metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every correctness check passed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "gate.h"
#include "run/report.h"
#include "run/service.h"
#include "run/sweep.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

namespace fs = std::filesystem;
namespace run = bdg::run;
using perfbench::Span;
using perfbench::Tracer;
using perfbench::Workload;
using perfbench::WorkCounts;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Latency statistics come from chunks of this many queries: the smallest
/// count whose p99 has ten samples beyond it.
constexpr std::size_t kLatencyChunk = 1000;
// Whole mix cycles per chunk, so every chunk holds each kind's exact share.
static_assert(kLatencyChunk % perfbench::kQueryMixLength == 0);
/// After each untraced sweep repetition, closed-loop queries poll a query
/// server over the repetition's finished checkpoint, in whole chunks, for
/// this share of the repetition's wall time (at least one chunk).
constexpr double kPollShare = 0.15;
/// Queries sent after the service grid completes, checked against the
/// merged report.
constexpr std::size_t kGateQueries = 24;
constexpr unsigned kServiceWorkers = 2;
/// Timed set-ups per repetition; a repetition's setup_s is their median.
constexpr int kSetupSamples = 5;
/// A timed set-up sample repeats the set-up until it has covered at least
/// this many grid points, so a tiny grid is not timed at the clock's grain.
constexpr std::size_t kSetupMinPoints = 2048;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string source = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> --out <dir> [--source <id>]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") o.workload = v;
      else if (flag == "--seed") o.seed = std::stoull(v);
      else if (flag == "--seconds") o.seconds = std::stod(v);
      else if (flag == "--trace") o.trace = std::stoi(v) != 0;
      else if (flag == "--out") o.out = v;
      else if (flag == "--source") o.source = v;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.out.empty()) usage("--out is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

// ---------------------------------------------------------------------------
// Machine fingerprint
// ---------------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string env_json(const Options& o) {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": \"" << json_escape(cpu_model()) << "\", \"compiler\": \""
     << PERFBENCH_COMPILER << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"lto\": " << (PERFBENCH_LTO ? "true" : "false")
     << ", \"source\": \"" << json_escape(o.source) << "\"}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Repetitions
// ---------------------------------------------------------------------------

/// Run `f` inside a span when tracing, plainly otherwise.
template <typename F>
decltype(auto) traced(Tracer* t, const char* name, std::uint32_t parent,
                      F&& f) {
  std::optional<Tracer::Scope> scope;
  if (t != nullptr) scope.emplace(*t, name, parent);
  return f();
}

/// name -> (value, unit), printed in name order.
using Metrics = std::map<std::string, std::pair<double, std::string>>;

struct QuerySample {
  int kind = 0;
  double ms = 0.0;
  std::size_t bytes = 0;  ///< reply body bytes
};

/// The closed-loop query client: one query in flight, the next sent only
/// after the previous reply.
struct Client {
  const std::vector<run::QueryRequest>* mix = nullptr;
  run::QueryClientConfig cfg;
  Tracer* tracer = nullptr;
  std::uint32_t parent = 0;
  std::size_t cursor = 0;
  std::vector<QuerySample> samples;  ///< measured queries, in send order
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// When set, every reply is checked against this finished report as it
  /// arrives; a mismatch counts as a failed query.
  const run::SweepResult* report = nullptr;
  std::vector<std::string> mismatches;
  /// Replies kept for checking once the report exists.
  std::vector<std::pair<std::size_t, run::QueryReply>> kept;

  /// Send the next query of the mix: `measure` records its latency,
  /// `keep` keeps its reply for the gate.
  void next(bool measure, bool keep) {
    const std::size_t idx = cursor++ % mix->size();
    const run::QueryRequest& q = (*mix)[idx];
    const auto t0 = Clock::now();
    std::optional<run::QueryReply> reply = traced(
        tracer, "run_query", parent, [&] { return run::run_query(q, cfg); });
    const double ms = since(t0) * 1e3;
    ++attempted;
    if (!reply || !reply->error.empty()) {
      ++failed;
      return;
    }
    std::size_t bytes = 0;
    for (const std::string& b : reply->bodies) bytes += b.size();
    if (measure) samples.push_back({perfbench::query_kind(q), ms, bytes});
    if (report != nullptr) {
      if (auto m = perfbench::check_reply(*report, q, *reply)) {
        ++failed;
        if (mismatches.size() < 5) mismatches.push_back(*m);
      }
    } else if (keep) {
      kept.emplace_back(idx, std::move(*reply));
    }
  }
};

/// What a repetition leaves once it has been checked. Full results are
/// dropped, so memory stays flat however many repetitions fit the budget.
struct Rep {
  bool traced = false;
  double setup_s = 0.0;  ///< median of the repetition's timed set-ups
  double wall_s = 0.0;  ///< first call into run .. reports written
  std::uint64_t run_points = 0;  ///< non-skipped points computed, not restored
  Metrics layer;  ///< traced repetitions only
  std::vector<Span> spans;
};

/// A repetition's full output, alive until it has been checked.
struct RepOutput {
  Rep rep;
  std::vector<run::SweepResult> results;  ///< one per grid
  std::uint64_t report_bytes = 0;
  std::uint64_t checkpoint_bytes = 0;
  // Service only.
  double serve_s = 0.0;  ///< serve() call .. last point merged
  std::uint64_t restore_lines = 0;  ///< lines the traced restore read
  run::CoordinatorStats stats;
  std::vector<run::WorkerExit> worker_exits;
  Client client;
};

class Bench {
 public:
  Bench(Options opt, Workload w)
      : opt_(std::move(opt)),
        w_(std::move(w)),
        work_(fs::path(opt_.out) / ("work-" + std::to_string(::getpid()))) {
    fs::create_directories(work_);
  }
  ~Bench() {
    std::error_code ec;
    fs::remove_all(work_, ec);
  }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  int run();

 private:
  [[nodiscard]] std::string path(const std::string& name) const {
    return (work_ / name).string();
  }
  [[nodiscard]] std::string checkpoint(std::size_t g) const {
    return path("grid" + std::to_string(g) + ".ckpt");
  }
  [[nodiscard]] std::size_t restored_every() const {
    return w_.service ? w_.restore_every : 0;
  }
  /// Record a gate failure once, however many repetitions repeat it.
  void fail(const std::string& why) {
    if (failures_.size() < 20 &&
        std::find(failures_.begin(), failures_.end(), why) == failures_.end())
      failures_.push_back(why);
  }

  double setup();
  RepOutput sweep_rep(bool trace);
  RepOutput service_rep(bool trace);
  void poll(const RepOutput& out);
  void check(const RepOutput& out);
  [[nodiscard]] Metrics layer_metrics(const RepOutput& out) const;
  [[nodiscard]] Metrics end_to_end() const;
  [[nodiscard]] Metrics per_layer() const;
  std::uint64_t write_reports(const run::SweepResult& r,
                              const std::string& stem, Tracer* t,
                              std::uint32_t parent);

  Options opt_;
  Workload w_;
  fs::path work_;
  run::SweepResult reference_;  ///< service: single-shot run_sweep oracle
  std::vector<std::uint64_t> grid_fingerprints_;  ///< the first set-up's
  std::size_t setup_passes_ = 0;  ///< set-ups per timed sample
  std::optional<WorkCounts> first_counts_;  ///< the first repetition's
  /// Per grid, the no-timing points and cells CSV every repetition must
  /// reproduce: the oracle's (service) or the first repetition's.
  std::vector<std::pair<std::string, std::string>> expected_csv_;
  std::vector<Rep> reps_;
  perfbench::LatencyChunks latency_{kLatencyChunk};
  std::size_t poll_cursor_ = 0;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

std::uint64_t Bench::write_reports(const run::SweepResult& r,
                                   const std::string& stem, Tracer* t,
                                   std::uint32_t parent) {
  std::uint64_t bytes = 0;
  const auto one = [&](const char* span, const std::string& file,
                       void (*writer)(std::ostream&, const run::SweepResult&)) {
    traced(t, span, parent, [&] {
      std::ofstream os(file);
      writer(os, r);
      os.flush();
      if (!os) throw std::runtime_error("cannot write " + file);
      bytes += static_cast<std::uint64_t>(os.tellp());
    });
  };
  one("write_points_csv", stem + ".points.csv", run::write_points_csv);
  one("write_cells_csv", stem + ".cells.csv", run::write_cells_csv);
  one("write_json", stem + ".json", run::write_json);
  return bytes;
}

/// The program's set-up before each repetition, timed kSetupSamples times:
/// expand and fingerprint every grid and (service) write the checkpoint the
/// coordinator restores its fixed share from. Returns the median sample,
/// per set-up.
double Bench::setup() {
  if (setup_passes_ == 0) {
    std::size_t points = 0;
    for (const run::SweepSpec& spec : w_.grids) points += run::expand_grid(spec).size();
    setup_passes_ = std::max<std::size_t>(1, (kSetupMinPoints + points - 1) / points);
  }
  std::vector<double> samples;
  for (int s = 0; s < kSetupSamples; ++s) {
    for (std::size_t g = 0; g < w_.grids.size(); ++g) fs::remove(checkpoint(g));
    std::vector<std::uint64_t> fingerprints;
    const auto t0 = Clock::now();
    for (std::size_t pass = 0; pass < setup_passes_; ++pass) {
      fingerprints.clear();
      for (const run::SweepSpec& spec : w_.grids)
        fingerprints.push_back(run::grid_fingerprint(spec, run::expand_grid(spec)));
      if (w_.service) {
        std::ofstream os(checkpoint(0));
        const std::uint64_t fp = run::spec_fingerprint(w_.grids[0]);
        for (std::size_t i = 0; i < reference_.points.size(); i += w_.restore_every)
          run::write_checkpoint_line(os, reference_.points[i], fp);
        os.flush();
        if (!os) throw std::runtime_error("cannot write " + checkpoint(0));
      }
    }
    samples.push_back(since(t0) / static_cast<double>(setup_passes_));
    // Grid expansion must not vary between set-ups.
    if (grid_fingerprints_.empty())
      grid_fingerprints_ = fingerprints;
    else if (fingerprints != grid_fingerprints_)
      fail("grid expansion differs between set-ups");
  }
  return perfbench::median(samples);
}

RepOutput Bench::sweep_rep(bool trace) {
  RepOutput out;
  Rep& r = out.rep;
  r.traced = trace;
  r.setup_s = setup();
  Tracer tracer;
  Tracer* t = trace ? &tracer : nullptr;
  const auto t0 = Clock::now();
  for (std::size_t g = 0; g < w_.grids.size(); ++g) {
    run::SweepSpec spec = w_.grids[g];
    spec.checkpoint_path = checkpoint(g);
    run::SweepResult res;
    std::optional<Tracer::Scope> sweep;  // root span: the whole grid
    if (t != nullptr) sweep.emplace(tracer, "sweep");
    const std::uint32_t root = sweep ? sweep->id() : 0;
    if (t == nullptr) {
      res = run::run_sweep(spec);
    } else {
      // The traced path drives the public per-point API in grid order
      // itself, with a span around every call; the gate checks that its
      // reports equal run_sweep's.
      const auto tg = Clock::now();
      const std::vector<run::SweepPoint> grid = run::expand_grid(spec);
      const run::RestoredCheckpoint rc =
          traced(t, "restore_checkpoint", root, [&] {
            return run::restore_checkpoint(spec, grid, res.points);
          });
      res.from_checkpoint = rc.restored;
      res.torn_checkpoint_lines = rc.torn;
      const std::uint64_t fp = run::spec_fingerprint(spec);
      std::ofstream ck(spec.checkpoint_path, std::ios::app);
      run::CellAggregator agg;
      for (const std::size_t i : rc.todo) {
        res.points[i] = traced(t, "run_point", root,
                               [&] { return run::run_point(spec, grid[i]); });
        traced(t, "append_checkpoint_line", root, [&] {
          run::append_checkpoint_line(ck, spec.checkpoint_path, res.points[i],
                                      fp);
        });
        traced(t, "CellAggregator::add", root,
               [&] { agg.add(i, res.points[i]); });
      }
      ck.close();
      res.cells = traced(t, "CellAggregator::cells", root,
                         [&] { return agg.cells(); });
      res.wall_seconds = since(tg);
    }
    out.report_bytes +=
        write_reports(res, path("grid" + std::to_string(g)), t, root);
    sweep.reset();
    out.checkpoint_bytes += fs::file_size(spec.checkpoint_path);
    r.run_points += res.points.size() - res.skipped();
    out.results.push_back(std::move(res));
  }
  r.wall_s = since(t0);
  r.spans = tracer.spans();
  return out;
}

RepOutput Bench::service_rep(bool trace) {
  RepOutput out;
  Rep& r = out.rep;
  r.traced = trace;
  r.setup_s = setup();
  Tracer tracer;
  Tracer* t = trace ? &tracer : nullptr;
  run::SweepSpec spec = w_.grids[0];
  spec.checkpoint_path = checkpoint(0);
  if (t != nullptr) {
    // Restore throughput, measured on the file the coordinator restores
    // from when serve() starts.
    const std::vector<run::SweepPoint> grid = run::expand_grid(spec);
    std::vector<run::PointResult> pts;
    const run::RestoredCheckpoint rc = traced(t, "restore_checkpoint", 0, [&] {
      return run::restore_checkpoint(spec, grid, pts);
    });
    out.restore_lines = rc.restored + rc.torn;
  }

  std::atomic<bool> grid_done{false};
  std::atomic<bool> abort{false};
  std::atomic<bool> stop{false};
  Clock::time_point t_done;
  spec.progress = [&](const run::PointResult&, std::size_t completed,
                      std::size_t total) {
    if (completed == total && !grid_done.load()) {
      t_done = Clock::now();
      grid_done.store(true);
    }
    return true;
  };
  run::ServiceConfig svc;
  svc.serve_after_finish = true;

  const auto t0 = Clock::now();
  std::optional<Tracer::Scope> root_scope;
  if (t != nullptr) root_scope.emplace(tracer, "service");
  const std::uint32_t root_id = root_scope ? root_scope->id() : 0;
  run::Coordinator coord(spec, svc);
  std::optional<Tracer::Scope> serve_scope;
  if (t != nullptr) serve_scope.emplace(tracer, "Coordinator::serve", root_id);

  Client& client = out.client;
  client.mix = &w_.queries;
  client.cfg.port = coord.port();
  client.tracer = t;
  client.parent = serve_scope ? serve_scope->id() : 0;
  out.worker_exits.assign(kServiceWorkers, run::WorkerExit::kLostCoordinator);
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < kServiceWorkers; ++i)
    threads.emplace_back([&, i] {
      run::WorkerConfig wc;
      wc.port = coord.port();
      wc.name = "perfbench-" + std::to_string(i);
      wc.jitter_seed = i + 1;
      try {
        out.worker_exits[i] = run::run_sweep_worker(w_.grids[0], wc);
      } catch (const std::exception&) {
        out.worker_exits[i] = run::WorkerExit::kRejected;
      }
    });
  threads.emplace_back([&] {
    while (!grid_done.load()) client.next(true, false);
    // Post-completion queries: checked against the merged report.
    for (std::size_t i = 0; i < kGateQueries && !abort.load(); ++i)
      client.next(false, true);
    stop.store(true);
  });

  const auto ts = Clock::now();
  run::SweepResult res;
  try {
    res = coord.serve(&stop);
  } catch (...) {
    abort.store(true);
    grid_done.store(true);
    for (std::thread& th : threads) th.join();
    throw;
  }
  serve_scope.reset();
  out.serve_s = std::chrono::duration<double>(t_done - ts).count();
  const auto tw = Clock::now();
  out.report_bytes = write_reports(res, path("grid0"), t, root_id);
  const double report_s = since(tw);
  root_scope.reset();
  for (std::thread& th : threads) th.join();
  // Grid completion plus report writing: the query tail serve_after_finish
  // keeps open after the last merge is not part of the sweep.
  r.wall_s = std::chrono::duration<double>(t_done - t0).count() + report_s;
  out.stats = coord.stats();
  out.checkpoint_bytes = fs::file_size(spec.checkpoint_path);
  for (std::size_t i = 0; i < res.points.size(); ++i)
    if (i % w_.restore_every != 0 && !res.points[i].skipped) ++r.run_points;
  out.results.push_back(std::move(res));
  r.spans = tracer.spans();
  return out;
}

void Bench::check(const RepOutput& out) {
  WorkCounts c;
  for (const run::SweepResult& res : out.results)
    c.add(perfbench::count_work(res, restored_every()));
  attempted_ += c.points - c.skipped + c.saturated;
  failed_ += perfbench::failed_points(c);
  if (perfbench::failed_points(c) != 0)
    fail(std::to_string(c.failed) + " points fail Definition 1, " +
         std::to_string(c.saturated) + " saturated");
  if (!first_counts_)
    first_counts_ = c;
  else if (!(c == *first_counts_))
    fail("work counters differ between repetitions");

  // Reports must not depend on the execution path: the service's merge
  // against the single-shot oracle, a traced sweep against run_sweep.
  if (expected_csv_.empty()) {
    if (w_.service) {
      expected_csv_.emplace_back(perfbench::points_csv_no_timing(reference_),
                                 perfbench::cells_csv_no_timing(reference_));
    } else {
      for (const run::SweepResult& res : out.results)
        expected_csv_.emplace_back(perfbench::points_csv_no_timing(res),
                                   perfbench::cells_csv_no_timing(res));
      return;  // the first sweep repetition defines the expectation
    }
  }
  for (std::size_t g = 0; g < out.results.size(); ++g) {
    const run::SweepResult& got = out.results[g];
    if (auto m = perfbench::first_mismatch(expected_csv_[g].first,
                                           perfbench::points_csv_no_timing(got)))
      fail("points CSV differs from single-shot: " + *m);
    if (auto m = perfbench::first_mismatch(expected_csv_[g].second,
                                           perfbench::cells_csv_no_timing(got)))
      fail("cells CSV differs from single-shot: " + *m);
  }
  if (w_.service) {
    attempted_ += out.client.attempted;
    failed_ += out.client.failed;
    for (const auto& [idx, reply] : out.client.kept)
      if (auto m = perfbench::check_reply(out.results[0], w_.queries[idx], reply)) {
        fail(*m);
        ++failed_;
      }
    for (const run::WorkerExit e : out.worker_exits)
      if (e != run::WorkerExit::kShutdown)
        fail("worker exited " + run::to_string(e));
  }
}

void Bench::poll(const RepOutput& out) {
  const run::SweepResult& report = out.results[0];
  // A query server over the repetition's finished checkpoint: every point
  // restores, no worker connects, and the closed-loop client polls it the
  // way sweep_query polls a finished sweepd.
  run::SweepSpec spec = w_.grids[0];
  spec.checkpoint_path = checkpoint(0);
  run::ServiceConfig svc;
  svc.serve_after_finish = true;
  svc.local_fallback = false;
  run::Coordinator coord(spec, svc);
  std::atomic<bool> abort{false};
  std::atomic<bool> stop{false};
  Client c;
  c.mix = &w_.queries;
  c.cfg.port = coord.port();
  c.cursor = poll_cursor_;
  c.report = &report;
  std::thread client([&] {
    const auto tc = Clock::now();
    do {
      for (std::size_t i = 0; i < kLatencyChunk && !abort.load(); ++i)
        c.next(true, false);
    } while (!abort.load() && since(tc) < kPollShare * out.rep.wall_s);
    stop.store(true);
  });
  run::SweepResult served;
  try {
    served = coord.serve(&stop);
  } catch (...) {
    abort.store(true);
    client.join();
    throw;
  }
  client.join();
  poll_cursor_ = c.cursor;
  attempted_ += c.attempted;
  failed_ += c.failed;
  for (const std::string& m : c.mismatches) fail(m);
  for (const QuerySample& q : c.samples) latency_.add(q.ms);
  if (auto m = perfbench::first_mismatch(expected_csv_[0].first,
                                         perfbench::points_csv_no_timing(served)))
    fail("restored result differs from the report: " + *m);
}

Metrics Bench::layer_metrics(const RepOutput& out) const {
  const Rep& r = out.rep;
  const std::size_t every = restored_every();
  WorkCounts c;
  double scenario_s = 0.0;
  for (const run::SweepResult& res : out.results) {
    c.add(perfbench::count_work(res, every));
    for (std::size_t i = 0; i < res.points.size(); ++i)
      if (!res.points[i].skipped && (every == 0 || i % every != 0))
        scenario_s += res.points[i].seconds;
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  Metrics m;
  m["sim.resumes"] = {d(c.resumes), "count"};
  m["sim.simulated_rounds"] = {d(c.simulated_rounds), "count"};
  m["sim.messages"] = {d(c.messages), "count"};
  m["sim.moves"] = {d(c.moves), "count"};
  m["sim.fastforward_ratio"] = {ratio(d(c.simulated_rounds), c.rounds.to_double()),
                                "ratio"};
  m["sim.resumes_per_s"] = {ratio(d(c.resumes), scenario_s), "1/s"};
  m["sim.messages_per_s"] = {ratio(d(c.messages), scenario_s), "1/s"};
  m["core.scenario_s"] = {scenario_s, "s"};
  m["core.points_ok"] = {d(c.ok), "count"};
  m["core.points_failed"] = {d(perfbench::failed_points(c)), "count"};

  const std::vector<Span>& sp = r.spans;
  const auto total = [&](const char* name) { return perfbench::total_time(sp, name); };
  const double point_s = total("run_point");
  const double build_s = point_s > 0.0 ? point_s - scenario_s : 0.0;
  m["graph.build_s"] = {build_s, "s"};
  m["graph.build_share"] = {ratio(build_s, point_s), "ratio"};
  m["run.point_s"] = {point_s, "s"};
  m["run.sweep_overhead_s"] = {perfbench::total_self_time(sp, "sweep"), "s"};
  m["run.checkpoint_append_s"] = {total("append_checkpoint_line"), "s"};
  m["run.checkpoint_bytes"] = {d(out.checkpoint_bytes), "B"};
  m["run.aggregate_s"] = {total("CellAggregator::add") + total("CellAggregator::cells"),
                          "s"};
  m["run.report_write_s"] = {total("write_points_csv") + total("write_cells_csv") +
                                 total("write_json"),
                             "s"};
  m["run.report_bytes"] = {d(out.report_bytes), "B"};
  const double restore_s = total("restore_checkpoint");
  m["run.checkpoint_restore_s"] = {restore_s, "s"};
  m["run.restore_lines_per_s"] = {ratio(d(out.restore_lines), restore_s), "1/s"};

  const run::CoordinatorStats& st = out.stats;
  m["run.serve_s"] = {out.serve_s, "s"};
  m["run.service_compute_share"] = {ratio(scenario_s, out.serve_s * kServiceWorkers),
                                    "ratio"};
  m["run.leases_granted"] = {d(st.leases_granted), "count"};
  m["run.leases_reassigned"] = {d(st.leases_reassigned), "count"};
  m["run.duplicate_results"] = {d(st.duplicate_results), "count"};
  m["run.local_fallback_points"] = {d(st.local_fallback_points), "count"};
  m["run.protocol_errors"] = {d(st.protocol_errors), "count"};
  m["run.queries_answered"] = {d(st.queries_answered), "count"};
  m["run.reassign_ratio"] = {ratio(d(st.leases_reassigned), d(st.leases_granted)),
                             "ratio"};
  std::vector<double> by_kind[perfbench::kQueryKindCount];
  std::size_t bytes = 0;
  const std::vector<QuerySample>& queries = out.client.samples;
  for (const QuerySample& q : queries) {
    by_kind[q.kind].push_back(q.ms);
    bytes += q.bytes;
  }
  for (int k = 0; k < perfbench::kQueryKindCount; ++k)
    m[std::string("run.query_") + perfbench::kQueryKinds[k] + "_p50_ms"] = {
        perfbench::percentile(by_kind[k], 50).value, "ms"};
  m["net.reply_bytes"] = {ratio(d(bytes), d(queries.size())), "B/query"};
  return m;
}

Metrics Bench::end_to_end() const {
  // Each repetition is one whole sweep; the best decile of its seconds per
  // point is the estimate.
  std::vector<double> per_point;
  for (const Rep& r : reps_)
    if (!r.traced) per_point.push_back(r.wall_s / static_cast<double>(r.run_points));
  const double best = perfbench::percentile(per_point, 10).value;
  const double pps = best > 0.0 ? 1.0 / best : 0.0;
  const perfbench::LatencyChunks::Summary lat = latency_.summary();
  std::cout << "query samples: " << lat.samples << " (" << lat.chunks
            << " chunks of " << lat.chunk << "; p99 has " << lat.beyond
            << " beyond it per chunk"
            << (lat.beyond >= 10 ? "" : ", fewer than 10: unresolved") << ")\n";
  std::vector<double> setup;
  for (const Rep& r : reps_) setup.push_back(r.setup_s);
  Metrics m;
  m["points_per_s"] = {pps, "1/s"};
  m["setup_s"] = {perfbench::median(setup), "s"};
  m["query_p50_ms"] = {lat.p50, "ms"};
  m["query_p99_ms"] = {lat.p99, "ms"};
  m["queries_per_s"] = {lat.per_s, "1/s"};
  m["ok_ratio"] = {attempted_ > 0 ? 1.0 - static_cast<double>(failed_) /
                                            static_cast<double>(attempted_)
                                  : 0.0,
                   "ratio"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  return m;
}

Metrics Bench::per_layer() const {
  std::map<std::string, std::vector<double>> values;
  Metrics m;
  double traced_pps = 0.0;
  double untraced_pps = 0.0;
  for (const Rep& r : reps_) {
    const double pps = static_cast<double>(r.run_points) / r.wall_s;
    double& best = r.traced ? traced_pps : untraced_pps;
    best = std::max(best, pps);
    for (const auto& [name, v] : r.layer) {
      values[name].push_back(v.first);
      m[name].second = v.second;
    }
  }
  for (const auto& [name, v] : values) m[name].first = perfbench::median(v);
  m["bench.traced_points_per_s"] = {traced_pps, "1/s"};
  m["bench.untraced_points_per_s"] = {untraced_pps, "1/s"};
  m["bench.trace_slowdown"] = {traced_pps > 0.0 ? untraced_pps / traced_pps : 0.0,
                               "x"};
  return m;
}

int Bench::run() {
  if (w_.service) {
    // Untimed oracle: the same grid single-shot, in process.
    reference_ = run::run_sweep(w_.grids[0]);
  }
  // Repetitions until the next one would overrun the budget; a traced run
  // alternates untraced and traced repetitions and has at least one each.
  const auto t_measure = Clock::now();
  bool next_traced = false;
  while (true) {
    const auto t_rep = Clock::now();
    RepOutput out = w_.service ? service_rep(next_traced) : sweep_rep(next_traced);
    check(out);
    if (!opt_.trace && !w_.service) poll(out);
    if (w_.service && !out.rep.traced)
      for (const QuerySample& q : out.client.samples) latency_.add(q.ms);
    if (out.rep.traced) out.rep.layer = layer_metrics(out);
    reps_.push_back(std::move(out.rep));
    if (opt_.trace) next_traced = !next_traced;
    const bool have_both = !opt_.trace || reps_.size() >= 2;
    if (have_both && since(t_measure) + since(t_rep) > opt_.seconds) break;
  }

  const Metrics metrics = opt_.trace ? per_layer() : end_to_end();
  const bool correct = failures_.empty();
  const std::string tag = opt_.workload + "-seed" + std::to_string(opt_.seed);

  const WorkCounts c = first_counts_.value_or(WorkCounts{});
  std::ostringstream cj;
  cj << "{\"points\": " << c.points << ", \"skipped\": " << c.skipped
     << ", \"ok\": " << c.ok << ", \"failed\": " << c.failed
     << ", \"saturated\": " << c.saturated << ", \"rounds\": \"" << c.rounds
     << "\", \"simulated_rounds\": " << c.simulated_rounds
     << ", \"resumes\": " << c.resumes << ", \"messages\": " << c.messages
     << ", \"moves\": " << c.moves << ", \"digest\": \"" << std::hex
     << c.digest << std::dec << "\"}";

  std::cout << "perfbench " << opt_.workload << " seed=" << opt_.seed
            << " trace=" << opt_.trace << " reps=" << reps_.size() << "\n"
            << "env " << env_json(opt_) << "\n"
            << "counts " << cj.str() << "\n";
  std::cout.precision(10);
  for (const auto& [name, v] : metrics)
    std::cout << "  " << name
              << std::string(name.size() < 30 ? 30 - name.size() : 1, ' ')
              << v.first << " " << v.second << "\n";
  for (const std::string& f : failures_) {
    std::cout << "FAIL: " << f << "\n";
    std::cerr << "perfbench: FAIL: " << f << "\n";
  }

  std::ostringstream mj;
  mj.precision(17);
  mj << "{";
  for (auto it = metrics.begin(); it != metrics.end(); ++it)
    mj << (it == metrics.begin() ? "" : ", ") << "\"" << it->first
       << "\": {\"value\": " << it->second.first << ", \"unit\": \""
       << it->second.second << "\"}";
  mj << "}";

  // Everything a later comparison needs, kept beside the build.
  {
    std::ofstream os(fs::path(opt_.out) / ("result-" + tag + "-trace" +
                                           std::to_string(opt_.trace) + ".json"));
    os.precision(17);
    os << "{\"workload\": \"" << opt_.workload << "\", \"seed\": " << opt_.seed
       << ", \"trace\": " << opt_.trace << ", \"env\": " << env_json(opt_)
       << ", \"counts\": " << cj.str() << ", \"reps\": [";
    for (std::size_t i = 0; i < reps_.size(); ++i)
      os << (i ? ", " : "") << "{\"traced\": " << (reps_[i].traced ? "true" : "false")
         << ", \"setup_s\": " << reps_[i].setup_s << ", \"wall_s\": " << reps_[i].wall_s
         << ", \"run_points\": " << reps_[i].run_points << "}";
    os << "], \"metrics\": " << mj.str() << ", \"failures\": " << failures_.size()
       << "}\n";
  }
  if (opt_.trace) {
    std::ofstream os(fs::path(opt_.out) / ("spans-" + tag + ".jsonl"));
    for (std::size_t i = 0; i < reps_.size(); ++i)
      perfbench::write_spans(os, reps_[i].spans, static_cast<int>(i));
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
            << ", \"metrics\": " << mj.str() << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  bool known = false;
  for (const std::string& n : perfbench::workload_names()) known |= n == opt.workload;
  if (!known) usage("unknown workload " + opt.workload);
  try {
    fs::create_directories(opt.out);
    Bench bench(opt, perfbench::make_workload(opt.workload, opt.seed));
    return bench.run();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
