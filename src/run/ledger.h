#pragma once
// SweepLedger: everything about one sweep except sockets — the grid and
// its fingerprints, the restored checkpoint, which points have results,
// the pending queue and lease table, the live cells, the checkpoint
// append stream and progress/abort. It is the one implementation of
// restore, merge-and-append, progress/abort, the aborted-skip fill and
// cell building: run_sweep is a ledger plus run_pending() (the in-process
// executor); the sweepd coordinator (run/service) is a ledger plus a
// socket loop, and its zero-worker fallback calls the same run_pending().
// Lease calls take `now` instead of reading a clock, so tests drive the
// lease protocol against an injected clock.
//
// Cell queries render each cell once: the ledger keeps every cell's
// write_cell_json body and re-renders a cell only after a merge touched
// it, so an unfiltered dump with no merge in between formats nothing and
// costs only the copy of the cached bodies.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "run/sweep.h"
#include "util/flat_hash.h"

namespace bdg::run {

struct CoordinatorStats {
  std::size_t workers_seen = 0;       ///< connections accepted
  std::size_t workers_rejected = 0;   ///< hellos with a foreign grid
  std::size_t leases_granted = 0;
  /// Leases revoked and re-queued: deadline missed, worker connection
  /// died, or a lease_done arrived with results still missing (dropped in
  /// transit). The conformance tier asserts this is > 0 when a worker is
  /// killed mid-grid.
  std::size_t leases_reassigned = 0;
  std::size_t duplicate_results = 0;  ///< re-delivered/re-run, ignored
  std::size_t local_fallback_points = 0;
  std::size_t protocol_errors = 0;    ///< malformed/mismatched frames
  std::size_t clients_seen = 0;       ///< connections that sent a query
  std::size_t queries_answered = 0;   ///< complete responses sent
};

/// One query. `what` selects the answer shape:
///  * "progress": no bodies; the header carries grid totals, completion
///    and the coordinator's live CoordinatorStats counters.
///  * "cells": every live cell aggregate matching the set selectors
///    (unset = wildcard). Strings match the report's spelling —
///    core::to_string names, mix_to_string mixes ("-" = no mix); k
///    matches the resolved robot count (k == n points match their n).
///  * "point": exactly one of derived_seed / index must be set; answers
///    the completed point's report JSON, or pending=true when the point
///    exists but has no result yet.
struct QueryRequest {
  std::string what = "progress";
  std::optional<std::string> algorithm;
  std::optional<std::string> family;
  std::optional<std::string> mix;
  std::optional<std::uint32_t> n;
  std::optional<std::uint32_t> k;
  std::optional<std::uint32_t> f;
  std::optional<std::uint64_t> derived_seed;
  std::optional<std::uint64_t> index;
};

/// A parsed response: header fields plus the verbatim body frames.
struct QueryReply {
  std::string what;
  std::string error;     ///< coordinator-side rejection ("" = answered)
  bool pending = false;  ///< point exists but has not completed yet
  std::vector<std::string> bodies;  ///< verbatim report JSON objects
  // Progress fields (what == "progress"):
  std::uint64_t total = 0;      ///< grid points
  std::uint64_t completed = 0;  ///< restored + merged so far
  std::uint64_t restored = 0;   ///< placed from the checkpoint
  std::uint64_t cells = 0;      ///< distinct live cells
  bool done = false;            ///< every grid point has a result
  CoordinatorStats stats;       ///< live counters snapshot
};

class SweepLedger {
 public:
  using Clock = std::chrono::steady_clock;
  /// Offers a lease (id, grid indices) to its holder; false = not sent.
  using SendLease =
      std::function<bool(std::uint64_t id, const std::vector<std::size_t>&)>;

  /// Expand the grid, restore the checkpoint (opened for append when
  /// points remain) and fold restored points into the live cells. Grants,
  /// heartbeats and results set their lease's deadline to now +
  /// lease_timeout. Throws on a bad grid or an unopenable checkpoint.
  explicit SweepLedger(const SweepSpec& spec,
                       std::chrono::milliseconds lease_timeout = {});

  [[nodiscard]] std::uint64_t spec_fingerprint() const { return spec_fp_; }
  [[nodiscard]] std::uint64_t grid_fingerprint() const { return grid_fp_; }
  [[nodiscard]] bool complete() const { return merged_ >= need_; }
  [[nodiscard]] bool aborted() const { return aborted_.load(); }
  /// Abort an unfinished sweep; a complete one stays done.
  void abort();
  [[nodiscard]] CoordinatorStats& stats() { return stats_; }

  /// Offer an idle `holder` (the caller's handle for a worker) up to
  /// max_points pending indices, front first, through `send`. Returns the
  /// lease id, or 0 when nothing is pending, the holder holds a lease, or
  /// `send` failed (the batch then returns to the front, uncounted).
  std::uint64_t grant(int holder, std::size_t max_points, Clock::time_point now,
                      const SendLease& send);
  /// Extend `holder`'s lease if `id` names it. A stale, foreign or zero id
  /// moves nothing: an idle ping must not keep a lease alive forever.
  void heartbeat(int holder, std::uint64_t id, Clock::time_point now);
  /// `holder` finished lease `id`: retire it, re-queueing at the front
  /// every index whose result never arrived. Other ids do nothing.
  void lease_done(int holder, std::uint64_t id);
  /// Revoke `holder`'s lease, re-queueing its unresulted indices in front.
  void release(int holder);
  /// Holders whose lease deadline is at or before `now`, in lease order.
  [[nodiscard]] std::vector<int> expired(Clock::time_point now) const;
  /// Points are pending and no lease is out.
  [[nodiscard]] bool unleased_work() const;

  /// Merge a result from `holder`, extending its lease first. Unknown
  /// points count as protocol errors, merged ones as duplicates.
  void merge(int holder, PointResult&& result, Clock::time_point now);
  /// The in-process executor: run every pending point across spec.threads,
  /// merging each as it lands; no new point starts once the sweep aborts
  /// or *stop is raised.
  void run_pending(const std::atomic<bool>* stop = nullptr);
  /// The final result: unrun points become aborted skips (never
  /// checkpointed, so a resume re-runs them), plus wall time and cells.
  /// Call once, last.
  [[nodiscard]] SweepResult finish();
  /// Answer a query from the live state (transport fields left unset).
  [[nodiscard]] QueryReply answer(const QueryRequest& q);
  /// Cell bodies answer() has rendered so far; a cached body is reused
  /// until a merge touches its cell.
  [[nodiscard]] std::uint64_t cells_rendered() const { return rendered_; }

 private:
  struct Lease {
    std::vector<std::size_t> remaining;  ///< indices without a result yet
    int holder = -1;
    Clock::time_point deadline;
  };

  using Leases = std::map<std::uint64_t, Lease>;  ///< by lease id

  Leases::iterator lease_of(int holder);
  void requeue(Leases::iterator lease);
  void merge_at(std::size_t idx, PointResult&& result);  ///< caller holds mu_
  /// Fold point `idx` into its cell and drop the cell's rendered body.
  void aggregate(std::size_t idx);

  SweepSpec spec_;
  std::chrono::milliseconds lease_timeout_;
  std::vector<SweepPoint> grid_;
  std::uint64_t spec_fp_ = 0;
  std::uint64_t grid_fp_ = 0;
  Clock::time_point t0_;

  /// Guards merges and query snapshots: run_pending merges from worker
  /// threads. Lease calls come from one thread, never during run_pending.
  std::mutex mu_;
  SweepResult result_;      ///< points at their grid index
  std::vector<char> have_;  ///< grid index has a result
  /// Lease owning each index (0 = none), so a merge touches only that
  /// lease. Queue entries merged meanwhile are skipped lazily.
  std::vector<std::uint64_t> owner_;
  /// Derived seed -> grid index over the WHOLE grid, so a re-streamed
  /// restored point counts as a duplicate. Lookup-only: grid order is the
  /// only report order.
  util::FlatMap<std::uint64_t, std::size_t> seed_to_index_;
  CellAggregator agg_;
  /// Each cell's write_cell_json body, by CellAggregator slot; empty
  /// until answer() renders it and again after a merge touches the cell.
  std::vector<std::string> bodies_;
  std::uint64_t rendered_ = 0;
  std::ofstream ck_;
  std::size_t need_ = 0;
  std::size_t merged_ = 0;
  std::atomic<bool> aborted_{false};
  CoordinatorStats stats_;

  std::deque<std::size_t> pending_;
  Leases leases_;
  std::uint64_t next_lease_ = 1;
};

}  // namespace bdg::run
