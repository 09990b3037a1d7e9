#pragma once
// sweepd: a fault-tolerant coordinator/worker sweep service.
//
// The coordinator keeps the sweep in a SweepLedger (run/ledger.h) and
// leases batches of point indices to workers over localhost TCP (net/:
// length-prefixed frames whose payloads are flat JSON — result frames are
// verbatim run/report.h checkpoint records, so the wire format IS the
// on-disk resume format). Workers run their leased points through the
// exact run_point the single-process runner uses and stream the results
// back; the ledger merges them at their grid index and appends each to the
// spec's checkpoint, exactly as it does for run_sweep, so crash-recovery
// and byte-identical resume carry over for free.
//
// Robustness model:
//  * Leases carry deadlines. Any frame from the lease holder (results,
//    heartbeats) extends the deadline; a missed deadline presumes the
//    worker dead — its connection is dropped and the un-resulted indices
//    return to the front of the queue for reassignment.
//  * Workers dial with capped exponential backoff and jitter
//    (net::dial_with_backoff) and reconnect after any transport failure;
//    results are idempotent (deterministic per derived seed), so re-runs
//    and duplicate deliveries never change the merged report.
//  * A hello handshake proves coordinator and worker expanded the SAME
//    grid (run::grid_fingerprint) before any lease is honored.
//  * Zero reachable workers degrades gracefully: after idle_grace_ms with
//    no live worker, the coordinator runs the remaining stripe in-process
//    through SweepLedger::run_pending — the executor run_sweep itself is
//    — instead of hanging.
//  * A stop flag (sweepd wires SIGTERM to it) aborts cleanly: finished
//    points are already flushed to the checkpoint, the remainder is marked
//    as aborted skips exactly like run_sweep's abort path, and workers are
//    told to shut down.
//  * The deterministic fault shim (net/fault.h) can be mounted on either
//    side to drop/delay/close frames on a seeded schedule — the
//    conformance tier pins that the merged report stays byte-identical
//    under kills, drops and delays. Each shimmed connection runs schedule
//    seed (config seed + connection index): still fully deterministic,
//    but a schedule that eats the handshake frame cannot livelock
//    reconnects by eating it identically on every redial.
//  * Live aggregate queries: clients dial the SAME listener and send
//    framed-JSON `query` frames — cell aggregates for an (algorithm,
//    family, n, k, f, mix) selector, point lookups by derived seed or grid
//    index, and sweep progress — answered from incrementally maintained
//    CellAggregator state (run/sweep.h), never from a full report rebuild.
//    Responses are one flat header frame plus N body frames that are
//    byte-identical to the report's per-cell/per-point JSON objects. With
//    serve_after_finish the coordinator keeps answering queries after the
//    grid completes (workers are sent shutdown the moment it does), which
//    also turns a finished checkpoint into a standalone query server.
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/fault.h"
#include "net/transport.h"
#include "run/ledger.h"

namespace bdg::run {

struct ServiceConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< coordinator listen port (0 = ephemeral)
  /// Max points per lease. Small leases reassign cheaply after a worker
  /// death; large leases amortize framing. Grid order is preserved within
  /// the queue, so lease size never affects the merged report.
  std::uint32_t lease_points = 8;
  /// Deadline granted per lease and extended by every frame from its
  /// holder. Must exceed the longest single-point runtime plus a
  /// heartbeat interval, or healthy workers get their leases revoked.
  std::uint32_t lease_timeout_ms = 3000;
  /// Coordinator: no live worker for this long => run the remaining
  /// stripe in-process instead of hanging (0 = fall back immediately).
  std::uint32_t idle_grace_ms = 2000;
  bool local_fallback = true;
  /// Keep serving queries after every grid point has a result: workers get
  /// their shutdown as soon as the grid completes, clients keep getting
  /// answers until the stop flag is raised (which then leaves `aborted`
  /// false — the sweep DID finish). With a checkpoint that restores the
  /// whole grid this is a standalone query server over finished results.
  bool serve_after_finish = false;
  net::FaultConfig fault;  ///< shim mounted on this side's sends
};

/// The sweepd coordinator. Construction binds the listener (throws when
/// the port is taken) so callers can read port() before spawning workers;
/// serve() runs the event loop to completion and returns the merged
/// result, byte-identical to run_sweep(spec) on the same grid.
class Coordinator {
 public:
  Coordinator(SweepSpec spec, ServiceConfig svc);

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  /// Serve until every grid point has a result (or the sweep aborts via
  /// spec.progress / `stop`). Not reentrant; call once.
  [[nodiscard]] SweepResult serve(const std::atomic<bool>* stop = nullptr);

  /// Counters as serve() left them (set when it returns; progress queries
  /// carry the live values).
  [[nodiscard]] const CoordinatorStats& stats() const { return stats_; }

 private:
  SweepSpec spec_;
  ServiceConfig svc_;
  net::Listener listener_;
  CoordinatorStats stats_;
};

struct WorkerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string name = "worker";
  net::BackoffConfig backoff;
  std::uint32_t idle_recv_ms = 500;
  std::uint32_t hello_timeout_ms = 5000;
  std::uint64_t jitter_seed = 1;  ///< backoff jitter stream
  net::FaultConfig fault;  ///< worker-side shim + kill-after-N-points hook
};

enum class WorkerExit {
  kShutdown,         ///< coordinator said shutdown: the grid is done
  kLostCoordinator,  ///< reconnect attempts exhausted
  kRejected,         ///< grid fingerprint mismatch (or protocol error)
  kKilled,           ///< fault shim kill hook fired (soft mode)
};

[[nodiscard]] std::string to_string(WorkerExit e);

/// Run one worker against the coordinator at cfg.host:cfg.port. The spec
/// must be flag-identical to the coordinator's (the hello handshake
/// enforces it via grid_fingerprint). Blocks until shutdown or failure.
/// With cfg.fault.kill_after_points set and kill_hard, this calls
/// std::_Exit(137) — simulating SIGKILL for the CI process smoke — and
/// never returns.
[[nodiscard]] WorkerExit run_sweep_worker(const SweepSpec& spec,
                                          const WorkerConfig& cfg);

// ---------------------------------------------------------------------------
// Query protocol. A client dials the coordinator's listener and sends a
// flat-JSON `query` frame; the coordinator replies with one flat `result`
// header frame (echoing the query id) followed by `count` body frames,
// each a verbatim report-JSON cell/point object (run/report.h's
// write_cell_json / write_point_json). Unlike leases, queries need no
// hello: the first query frame marks the connection as a client.
// ---------------------------------------------------------------------------

/// The progress fields of a reply as JSON members (`"total": N, ...,
/// "done": B`, then every CoordinatorStats counter), no braces: the one
/// spelling the coordinator's progress header and sweep_query's printer
/// share.
void write_progress_fields(std::ostream& os, const QueryReply& reply);

struct QueryClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint32_t timeout_ms = 2000;  ///< per-frame receive deadline
  /// Full-query retries. Each failed attempt redials on a fresh
  /// connection (fresh fault-shim schedule), so a seeded drop schedule
  /// can eat a response without wedging the client.
  std::uint32_t attempts = 5;
  net::BackoffConfig backoff;
  std::uint64_t jitter_seed = 1;
  net::FaultConfig fault;  ///< client-side shim (conformance tests)
};

/// Issue one query, retrying per cfg. nullopt = the coordinator could not
/// be reached (or kept dropping the response) within cfg.attempts; a
/// reply with a non-empty `error` means it answered and rejected the
/// query (unknown `what`, bad selector).
[[nodiscard]] std::optional<QueryReply> run_query(const QueryRequest& req,
                                                  const QueryClientConfig& cfg);

}  // namespace bdg::run
