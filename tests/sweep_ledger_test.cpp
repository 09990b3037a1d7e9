// Socket-free tier for SweepLedger, the one sweep state behind run_sweep
// and the sweepd coordinator. Leases run against an injected clock (every
// call takes `now`), so lease expiry, heartbeats and requeues are pinned
// exactly instead of raced:
//  * a heartbeat with a stale, foreign or zero lease id never moves a
//    deadline (an idle ping must not keep a lost lease alive forever);
//  * a lease_done with results missing requeues them at the queue front;
//  * seeded random interleavings of grant / heartbeat / result /
//    duplicate / lease_done / drop / expire / in-process fallback merge
//    every grid index exactly once, answer live cell queries exactly as a
//    batch rebuild over the landed points would, and finish() is
//    byte-identical to run_sweep on the same spec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "run/ledger.h"
#include "run/report.h"
#include "run/sweep.h"
#include "util/rng.h"

namespace bdg::run {
namespace {

using Clock = SweepLedger::Clock;
using std::chrono::milliseconds;

constexpr milliseconds kTimeout{100};

Clock::time_point at(std::int64_t ms) {
  return Clock::time_point{} + milliseconds(ms);
}

/// 12 cheap points; timing off so reports are a pure function of the grid.
SweepSpec small_spec() {
  SweepSpec spec;
  spec.algorithms = {core::Algorithm::kThreeGroupGathered};
  spec.families = {"er"};
  spec.sizes = {6};
  spec.seeds = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  spec.threads = 1;
  spec.measure_seconds = false;
  return spec;
}

std::string all_reports(const SweepResult& r) {
  std::ostringstream os;
  write_points_csv(os, r);
  os << "\n--\n";
  write_cells_csv(os, r);
  os << "\n--\n";
  write_json(os, r);
  return os.str();
}

/// A send callback that records what it was offered.
SweepLedger::SendLease record(std::vector<std::size_t>& offered,
                              bool ok = true) {
  return [&offered, ok](std::uint64_t, const std::vector<std::size_t>& pts) {
    offered = pts;
    return ok;
  };
}

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

TEST(SweepLedger, StaleOrForeignHeartbeatNeverMovesADeadline) {
  SweepLedger ledger(small_spec(), kTimeout);
  std::vector<std::size_t> offered;
  const std::uint64_t a = ledger.grant(1, 2, at(0), record(offered));
  const std::uint64_t b = ledger.grant(2, 2, at(0), record(offered));
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_EQ(ledger.grant(1, 2, at(0), record(offered)), 0u)
      << "a holder holds at most one lease";

  ledger.heartbeat(1, b, at(50));      // foreign: holder 2's lease
  ledger.heartbeat(1, 0, at(50));      // an idle worker's ping
  ledger.heartbeat(1, b + 99, at(50)); // never granted
  EXPECT_TRUE(ledger.expired(at(99)).empty());
  EXPECT_EQ(ledger.expired(at(100)), (std::vector<int>{1, 2}));

  ledger.heartbeat(1, a, at(60));  // the live lease: extends
  EXPECT_EQ(ledger.expired(at(100)), (std::vector<int>{2}));
  EXPECT_FALSE(contains(ledger.expired(at(159)), 1));
  EXPECT_TRUE(contains(ledger.expired(at(160)), 1));

  // Stale: lease `a` is retired; a late heartbeat for it must not extend
  // the holder's next lease.
  ledger.lease_done(1, a);
  const std::uint64_t c = ledger.grant(1, 2, at(70), record(offered));
  ASSERT_NE(c, 0u);
  ledger.heartbeat(1, a, at(90));
  EXPECT_FALSE(contains(ledger.expired(at(169)), 1));
  EXPECT_TRUE(contains(ledger.expired(at(170)), 1));
}

TEST(SweepLedger, LeaseDoneWithMissingResultsRequeuesThemAtTheFront) {
  const SweepSpec spec = small_spec();
  const SweepResult full = run_sweep(spec);
  SweepLedger ledger(spec, kTimeout);

  std::vector<std::size_t> offered;
  const std::uint64_t a = ledger.grant(1, 4, at(0), record(offered));
  EXPECT_EQ(offered, (std::vector<std::size_t>{0, 1, 2, 3}));
  PointResult r1 = full.points[1];
  PointResult r3 = full.points[3];
  ledger.merge(1, std::move(r1), at(1));
  ledger.merge(1, std::move(r3), at(2));
  ledger.lease_done(1, a);  // results for 0 and 2 were lost in transit
  EXPECT_EQ(ledger.stats().leases_reassigned, 1u);

  const std::uint64_t b = ledger.grant(2, 4, at(3), record(offered));
  EXPECT_EQ(offered, (std::vector<std::size_t>{0, 2, 4, 5}));

  // A lease whose results all arrived retires without a reassignment.
  for (const std::size_t i : offered) {
    PointResult r = full.points[i];
    ledger.merge(2, std::move(r), at(4));
  }
  ledger.lease_done(2, b);
  EXPECT_EQ(ledger.stats().leases_reassigned, 1u);

  // A failed send puts the batch back at the front, uncounted.
  EXPECT_EQ(ledger.grant(3, 2, at(5), record(offered, false)), 0u);
  EXPECT_EQ(offered, (std::vector<std::size_t>{6, 7}));
  EXPECT_NE(ledger.grant(3, 2, at(5), record(offered)), 0u);
  EXPECT_EQ(offered, (std::vector<std::size_t>{6, 7}));
  EXPECT_EQ(ledger.stats().leases_granted, 3u);
}

/// One simulated worker: its live lease, what it was given, how far it got.
struct SimWorker {
  std::uint64_t lease = 0;
  std::vector<std::size_t> points;
  std::size_t next = 0;
  Clock::time_point deadline;  ///< the model's expectation
};

/// Drive one seeded interleaving to completion. With `checkpoint` set,
/// the first third of a finished sweep's checkpoint is restored first.
void random_interleaving(std::uint64_t seed, bool checkpoint) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  SweepSpec spec = small_spec();
  spec.threads = 1 + static_cast<unsigned>(seed % 2);
  SweepResult expected = run_sweep(spec);
  const std::size_t total = expected.points.size();
  std::vector<std::size_t> restored;
  if (checkpoint) {
    // The reference resumes from its own copy of the same checkpoint.
    const std::string stem =
        testing::TempDir() + "ledger_" + std::to_string(seed);
    for (const std::string& path : {stem + ".ref.jsonl", stem + ".jsonl"}) {
      std::ofstream ck(path, std::ios::trunc);
      for (std::size_t i = 0; i < total; i += 3)
        write_checkpoint_line(ck, expected.points[i], spec_fingerprint(spec));
    }
    for (std::size_t i = 0; i < total; i += 3) restored.push_back(i);
    spec.checkpoint_path = stem + ".ref.jsonl";
    expected = run_sweep(spec);
    std::remove(spec.checkpoint_path.c_str());
    spec.checkpoint_path = stem + ".jsonl";
  }

  std::map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < total; ++i)
    index_of[expected.points[i].derived_seed] = i;
  std::vector<int> merges(total, 0);
  spec.progress = [&](const PointResult& p, std::size_t, std::size_t) {
    ++merges[index_of.at(p.derived_seed)];
    return true;
  };

  SweepLedger ledger(spec, kTimeout);
  std::vector<bool> landed(total, false);
  for (const std::size_t i : restored) landed[i] = true;
  std::size_t duplicates = 0;
  std::size_t foreign = 0;

  Rng rng(seed);
  std::vector<SimWorker> sims(3);
  std::vector<std::uint64_t> retired;  // lease ids no longer live
  std::int64_t now_ms = 0;
  const auto deliver = [&](int h, std::size_t idx) {
    PointResult r = expected.points[idx];
    if (landed[idx]) ++duplicates;
    landed[idx] = true;
    if (sims[h].lease != 0) sims[h].deadline = at(now_ms) + kTimeout;
    ledger.merge(h, std::move(r), at(now_ms));
  };
  const auto forget = [&](int h) {
    if (sims[h].lease != 0) retired.push_back(sims[h].lease);
    sims[h] = SimWorker{};
  };

  for (int step = 0; step < 20000 && !ledger.complete(); ++step) {
    const int h = static_cast<int>(rng.below(sims.size()));
    SimWorker& w = sims[h];
    switch (rng.below(10)) {
      case 0:
      case 1: {  // grant (a send sometimes fails)
        if (w.lease != 0) break;
        std::vector<std::size_t> offered;
        const std::uint64_t id =
            ledger.grant(h, 1 + rng.below(4), at(now_ms),
                         record(offered, !rng.chance(1, 8)));
        if (id == 0) break;
        w.lease = id;
        w.points = offered;
        w.next = 0;
        w.deadline = at(now_ms) + kTimeout;
        break;
      }
      case 2:  // heartbeat for the live lease
        if (w.lease == 0) break;
        ledger.heartbeat(h, w.lease, at(now_ms));
        w.deadline = at(now_ms) + kTimeout;
        break;
      case 3: {  // heartbeat with a zero, stale or foreign id
        const std::uint64_t other = sims[(h + 1) % sims.size()].lease;
        const std::uint64_t bad[] = {
            0, retired.empty() ? 0 : retired[rng.below(retired.size())],
            other};
        ledger.heartbeat(h, bad[rng.below(3)], at(now_ms));
        break;
      }
      case 4:
      case 5:  // the next result: delivered, or lost in transit
        if (w.lease == 0 || w.next == w.points.size()) break;
        if (rng.chance(3, 4)) deliver(h, w.points[w.next]);
        ++w.next;
        break;
      case 6:  // a duplicate delivery, or a result for no grid point
        if (rng.chance(1, 4)) {
          PointResult r = expected.points[0];
          r.derived_seed ^= 0x5A5A;
          ++foreign;
          if (w.lease != 0) w.deadline = at(now_ms) + kTimeout;
          ledger.merge(h, std::move(r), at(now_ms));
        } else {
          deliver(h, rng.below(total));
        }
        break;
      case 7:  // lease_done once the batch was walked
        if (w.lease == 0 || w.next != w.points.size()) break;
        ledger.lease_done(h, w.lease);
        forget(h);
        break;
      case 8:  // the connection drops
        if (!rng.chance(1, 4)) break;
        ledger.release(h);
        forget(h);
        break;
      default: {  // time passes; silent holders expire
        now_ms += static_cast<std::int64_t>(rng.below(60));
        for (const int e : ledger.expired(at(now_ms))) {
          ASSERT_NE(sims[e].lease, 0u);
          ledger.release(e);
          forget(e);
        }
        // Nobody holds work: sometimes run the rest in-process, as the
        // coordinator's zero-worker fallback does.
        if (ledger.unleased_work() && rng.chance(1, 6)) {
          ledger.run_pending();
          landed.assign(total, true);
        }
        break;
      }
    }
    if (rng.chance(1, 8)) {
      // Live cells mid-sweep equal a batch rebuild over what has landed.
      SweepResult partial = expected;
      for (std::size_t i = 0; i < total; ++i)
        if (!landed[i]) partial.points[i].skipped = true;
      rebuild_cell_aggregates(partial);
      QueryRequest q;
      q.what = "cells";
      const QueryReply reply = ledger.answer(q);
      ASSERT_EQ(reply.bodies.size(), partial.cells.size());
      for (std::size_t c = 0; c < partial.cells.size(); ++c) {
        std::ostringstream os;
        write_cell_json(os, partial.cells[c]);
        ASSERT_EQ(reply.bodies[c], os.str());
      }
    }
    // The model's deadlines are the ledger's, to the millisecond.
    for (int i = 0; i < static_cast<int>(sims.size()); ++i) {
      if (sims[i].lease == 0) continue;
      const Clock::time_point due = sims[i].deadline;
      ASSERT_FALSE(contains(ledger.expired(due - milliseconds(1)), i));
      ASSERT_TRUE(contains(ledger.expired(due), i));
    }
  }
  ASSERT_TRUE(ledger.complete());

  for (std::size_t i = 0; i < total; ++i) {
    const bool was_restored =
        std::find(restored.begin(), restored.end(), i) != restored.end();
    EXPECT_EQ(merges[i], was_restored ? 0 : 1) << "grid index " << i;
  }
  EXPECT_EQ(ledger.stats().duplicate_results, duplicates);
  EXPECT_EQ(ledger.stats().protocol_errors, foreign);

  const SweepResult result = ledger.finish();
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.from_checkpoint, restored.size());
  EXPECT_EQ(all_reports(result), all_reports(expected));
  if (checkpoint) std::remove(spec.checkpoint_path.c_str());
}

TEST(SweepLedger, RandomInterleavingsMergeEachPointOnceAndMatchRunSweep) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed)
    random_interleaving(seed, /*checkpoint=*/seed % 3 == 0);
}

}  // namespace
}  // namespace bdg::run
