// Unit tests for the benchmark's own arithmetic and gate: percentile
// selection with sample counts, span self time, the correctness gate on a
// corrupted report, and seed-determined workloads. Exit code 0 = all pass.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "gate.h"
#include "run/report.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++g_failures;                                                   \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK failed: " \
                << #cond << "\n";                                     \
    }                                                                 \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending: selection must sort
}

void test_percentiles() {
  using perfbench::percentile;
  // p99 of exactly 1000 samples: rank 990, ten samples beyond it.
  const perfbench::Percentile p = percentile(one_to(1000), 99);
  CHECK(p.samples == 1000);
  CHECK(near(p.value, 990.0));
  CHECK(p.beyond == 10);
  // One sample fewer leaves only nine beyond: not a reportable p99.
  const perfbench::Percentile q = percentile(one_to(999), 99);
  CHECK(q.samples == 999);
  CHECK(near(q.value, 990.0));
  CHECK(q.beyond == 9);
  // Nearest rank, not interpolation.
  CHECK(near(percentile({3.0, 1.0, 2.0, 4.0}, 50).value, 2.0));
  CHECK(near(percentile({5.0}, 99).value, 5.0));
  CHECK(percentile({5.0}, 99).beyond == 0);
  CHECK(near(percentile(one_to(10), 100).value, 10.0));
  const perfbench::Percentile e = percentile({}, 50);
  CHECK(e.samples == 0 && e.value == 0.0 && e.beyond == 0);
  CHECK(near(perfbench::median({4.0, 1.0, 3.0}), 3.0));
  CHECK(near(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5));
  CHECK(perfbench::median({}) == 0.0);

  // Chunked closed-loop latency: two full chunks of 1000 and a partial
  // one that is left out. The second chunk is uniformly 2x slower, so
  // every best-of statistic comes from the first.
  perfbench::LatencyChunks lat(1000);
  for (int c = 1; c <= 2; ++c)
    for (double v : one_to(1000)) lat.add(v * c / 1000.0);
  for (int i = 0; i < 500; ++i) lat.add(0.0001);
  const perfbench::LatencyChunks::Summary s = lat.summary();
  CHECK(s.samples == 2500);
  CHECK(s.chunks == 2 && s.chunk == 1000);
  CHECK(s.beyond == 10);
  CHECK(near(s.p50, 0.5));
  CHECK(near(s.p99, 0.99));
  // 1000 queries in sum(1..1000)/1000 ms = 500.5 ms of closed-loop time.
  CHECK(std::fabs(s.per_s - 1000.0 / 0.5005) < 1e-6);
  // Fewer samples than a chunk: the partial chunk is all there is.
  perfbench::LatencyChunks few(1000);
  for (double v : one_to(100)) few.add(v);
  const perfbench::LatencyChunks::Summary f = few.summary();
  CHECK(f.chunks == 1 && f.chunk == 100 && f.beyond == 1);
  CHECK(near(f.p99, 99.0));
  CHECK(perfbench::LatencyChunks(1000).summary().chunks == 0);
  // Twenty chunks, chunk c uniformly (c + 1)x slower: the best decile is
  // the second-best chunk (nearest rank 2 of 20), not the single best.
  perfbench::LatencyChunks deciles(10);
  for (int c = 0; c < 20; ++c)
    for (int i = 0; i < 10; ++i) deciles.add(1.0 * (c + 1));
  const perfbench::LatencyChunks::Summary d = deciles.summary();
  CHECK(d.chunks == 20);
  CHECK(near(d.p50, 2.0) && near(d.p99, 2.0));
  CHECK(std::fabs(d.per_s - 1000.0 / 2.0) < 1e-9);  // 10 queries in 20 ms
}

perfbench::Span span(std::uint32_t id, std::uint32_t parent, double a,
                     double b, const char* name = "x") {
  perfbench::Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_s = a;
  s.end_s = b;
  return s;
}

void test_self_time() {
  // Root [0, 10]; children [1, 3] and [2, 5] overlap (concurrent threads)
  // and [8, 12] runs past the root's end; [6, 7] is a grandchild, which
  // its own parent already covers.
  const std::vector<perfbench::Span> spans = {
      span(1, 0, 0.0, 10.0, "sweep"), span(2, 1, 1.0, 3.0, "run_point"),
      span(3, 1, 2.0, 5.0, "run_point"), span(4, 1, 8.0, 12.0, "write_json"),
      span(5, 1, 5.5, 7.5, "run_point"), span(6, 5, 6.0, 7.0, "inner")};
  // Covered: [1, 5] + [5.5, 7.5] + [8, 10] = 4 + 2 + 2 = 8.
  CHECK(near(perfbench::self_time(spans, 1), 2.0));
  CHECK(near(perfbench::self_time(spans, 5), 1.0));
  CHECK(near(perfbench::self_time(spans, 2), 2.0));  // leaf: its duration
  CHECK(perfbench::self_time(spans, 99) == 0.0);     // unknown id
  CHECK(near(perfbench::total_time(spans, "run_point"), 2.0 + 3.0 + 2.0));
  CHECK(near(perfbench::total_self_time(spans, "run_point"), 2.0 + 3.0 + 1.0));

  perfbench::Tracer t;
  std::uint32_t outer = 0;
  {
    perfbench::Tracer::Scope a(t, "a");
    outer = a.id();
    perfbench::Tracer::Scope b(t, "b", a.id());
  }
  const std::vector<perfbench::Span> rec = t.spans();
  CHECK(rec.size() == 2);
  CHECK(rec[0].id == outer && rec[0].parent == 0);
  CHECK(rec[1].parent == outer);
  CHECK(rec[0].end_s >= rec[1].end_s && rec[1].start_s >= rec[0].start_s);
  CHECK(perfbench::self_time(rec, outer) >= 0.0);
}

bdg::run::SweepResult tiny_sweep() {
  bdg::run::SweepSpec spec;
  spec.algorithms = {bdg::core::Algorithm::kQuotient};
  spec.families = {"er", "ring"};
  spec.sizes = {8, 12};
  spec.seeds = {1, 2};
  spec.threads = 1;
  return bdg::run::run_sweep(spec);
}

void test_gate() {
  const bdg::run::SweepResult r = tiny_sweep();
  const perfbench::WorkCounts c = perfbench::count_work(r);
  CHECK(c.points == r.points.size());
  CHECK(c.ok + c.failed + c.skipped == c.points);
  CHECK(perfbench::failed_points(c) == 0);
  CHECK(c.messages > 0 && c.resumes > 0);
  CHECK(perfbench::count_work(tiny_sweep()) == c);  // exact repeat

  // Wall-clock differences vanish from the no-timing reports...
  bdg::run::SweepResult slower = r;
  for (bdg::run::PointResult& p : slower.points) p.seconds += 1.0;
  for (bdg::run::CellAggregate& cell : slower.cells) cell.mean_seconds += 1.0;
  CHECK(!perfbench::first_mismatch(perfbench::points_csv_no_timing(r),
                                   perfbench::points_csv_no_timing(slower)));
  CHECK(!perfbench::first_mismatch(perfbench::cells_csv_no_timing(r),
                                   perfbench::cells_csv_no_timing(slower)));

  // ...but a corrupted deterministic column trips the gate, naming the line.
  const std::string good = perfbench::points_csv_no_timing(r);
  std::string bad = good;
  const std::size_t second_line = bad.find('\n') + 1;
  const std::size_t comma = bad.find(',', second_line);
  bad[comma + 1] = bad[comma + 1] == 'r' ? 'R' : 'r';
  const auto m = perfbench::first_mismatch(good, bad);
  CHECK(m.has_value());
  CHECK(m && m->rfind("line 2:", 0) == 0);
  CHECK(perfbench::first_mismatch(good, good + "extra\n").has_value());

  // A failed point counts as failed and changes the digest.
  bdg::run::SweepResult broken = r;
  for (bdg::run::PointResult& p : broken.points)
    if (!p.skipped) {
      p.ok = false;
      break;
    }
  const perfbench::WorkCounts cb = perfbench::count_work(broken);
  CHECK(perfbench::failed_points(cb) == 1);
  CHECK(cb.digest != c.digest);

  // Restored points are left out of the counts.
  const perfbench::WorkCounts every2 = perfbench::count_work(r, 2);
  CHECK(every2.points == r.points.size() / 2);

  // Query replies are checked against the report's JSON.
  bdg::run::QueryRequest q;
  q.what = "cells";
  q.family = "er";
  bdg::run::QueryReply reply;
  reply.bodies = perfbench::expected_cell_bodies(r.cells, q);
  CHECK(!reply.bodies.empty());
  CHECK(!perfbench::check_reply(r, q, reply));
  reply.bodies.back().back() = ' ';  // a corrupted cell body
  CHECK(perfbench::check_reply(r, q, reply).has_value());
  reply.bodies.pop_back();  // a missing cell
  CHECK(perfbench::check_reply(r, q, reply).has_value());

  bdg::run::QueryRequest pq;
  pq.what = "point";
  pq.index = 0;
  bdg::run::QueryReply preply;
  std::ostringstream os;
  bdg::run::write_point_json(os, r.points[0]);
  preply.bodies = {os.str()};
  CHECK(!perfbench::check_reply(r, pq, preply));
  preply.bodies[0].insert(1, " ");
  CHECK(perfbench::check_reply(r, pq, preply).has_value());
  preply.error = "unknown query what";
  CHECK(perfbench::check_reply(r, pq, preply).has_value());

  // A point looked up by derived seed must be that point's JSON.
  const std::size_t last = r.points.size() - 1;
  bdg::run::QueryRequest sq;
  sq.what = "point";
  sq.derived_seed = r.points[last].derived_seed;
  bdg::run::QueryReply sreply;
  std::ostringstream ls;
  bdg::run::write_point_json(ls, r.points[last]);
  sreply.bodies = {ls.str()};
  CHECK(!perfbench::check_reply(r, sq, sreply));
  sreply.bodies = preply.bodies;  // another point's body
  CHECK(perfbench::check_reply(r, sq, sreply).has_value());
  sq.derived_seed = *sq.derived_seed + 1;  // no such point
  CHECK(perfbench::check_reply(r, sq, sreply).has_value());

  // A cells query with no selector is the whole cell list.
  bdg::run::QueryRequest all;
  all.what = "cells";
  bdg::run::QueryReply areply;
  areply.bodies = perfbench::expected_cell_bodies(r.cells, all);
  CHECK(areply.bodies.size() == r.cells.size());
  CHECK(!perfbench::check_reply(r, all, areply));
  areply.bodies.front().insert(1, " ");
  CHECK(perfbench::check_reply(r, all, areply).has_value());
}

void test_workloads() {
  for (const std::string& name : perfbench::workload_names()) {
    const perfbench::Workload a = perfbench::make_workload(name, 7);
    const perfbench::Workload b = perfbench::make_workload(name, 7);
    const perfbench::Workload c = perfbench::make_workload(name, 8);
    CHECK(!a.grids.empty());
    CHECK(a.grids.size() == b.grids.size());
    CHECK(a.service == (name == "service_query"));
    for (std::size_t g = 0; g < a.grids.size(); ++g) {
      const auto ga = bdg::run::expand_grid(a.grids[g]);
      CHECK(bdg::run::grid_fingerprint(a.grids[g], ga) ==
            bdg::run::grid_fingerprint(b.grids[g],
                                       bdg::run::expand_grid(b.grids[g])));
      CHECK(bdg::run::grid_fingerprint(a.grids[g], ga) !=
            bdg::run::grid_fingerprint(c.grids[g],
                                       bdg::run::expand_grid(c.grids[g])));
      CHECK(a.grids[g].threads == 1);
    }
    CHECK(a.queries.size() == b.queries.size());
    bool same = true;
    for (std::size_t i = 0; i < a.queries.size(); ++i)
      same = same && a.queries[i].what == b.queries[i].what &&
             a.queries[i].derived_seed == b.queries[i].derived_seed &&
             a.queries[i].f == b.queries[i].f;
    CHECK(same);
    // Every documented kind is in the mix, and every point lookup names a
    // derived seed of the grid.
    int kinds[perfbench::kQueryKindCount] = {};
    std::vector<std::uint64_t> seeds;
    for (const bdg::run::SweepPoint& p : bdg::run::expand_grid(a.grids[0]))
      seeds.push_back(bdg::run::point_seed(a.grids[0].base_seed, p));
    for (const bdg::run::QueryRequest& q : a.queries) {
      ++kinds[perfbench::query_kind(q)];
      if (q.what == "point")
        CHECK(q.derived_seed && std::find(seeds.begin(), seeds.end(),
                                          *q.derived_seed) != seeds.end());
    }
    // Exact shares for every seed: 5/8 progress, 1/8 each of the rest.
    const int eighth = static_cast<int>(perfbench::kQueryMixLength / 8);
    CHECK(a.queries.size() == perfbench::kQueryMixLength);
    CHECK(kinds[0] == 5 * eighth && kinds[1] == eighth && kinds[2] == eighth &&
          kinds[3] == eighth);
  }
  bool threw = false;
  try {
    (void)perfbench::make_workload("nope", 1);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_gate();
  test_workloads();
  if (g_failures != 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench_test: all checks passed\n";
  return 0;
}
