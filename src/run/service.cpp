#include "run/service.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

#include "run/report.h"
#include "util/json_mini.h"

namespace bdg::run {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(to - from)
      .count();
}

// ---------------------------------------------------------------------------
// Control messages. Flat JSON like the checkpoint records; a frame whose
// "type" field is absent is a result (a verbatim checkpoint line).
// ---------------------------------------------------------------------------

std::string msg_hello(const std::string& name, std::uint64_t spec_fp,
                      std::uint64_t grid_fp) {
  std::ostringstream os;
  os << "{\"type\": \"hello\", \"name\": \"" << json::escape(name)
     << "\", \"spec\": " << spec_fp << ", \"grid\": " << grid_fp << "}";
  return os.str();
}

std::string msg_hello_ok(std::uint32_t lease_timeout_ms) {
  std::ostringstream os;
  os << "{\"type\": \"hello_ok\", \"lease_timeout_ms\": " << lease_timeout_ms
     << "}";
  return os.str();
}

std::string msg_reject(const std::string& reason) {
  std::ostringstream os;
  os << "{\"type\": \"reject\", \"reason\": \"" << json::escape(reason)
     << "\"}";
  return os.str();
}

std::string msg_lease(std::uint64_t id,
                      const std::vector<std::size_t>& indices) {
  std::ostringstream os;
  os << "{\"type\": \"lease\", \"id\": " << id << ", \"points\": \"";
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (i != 0) os << ' ';
    os << indices[i];
  }
  os << "\"}";
  return os.str();
}

std::string msg_heartbeat(std::uint64_t lease_id) {
  std::ostringstream os;
  os << "{\"type\": \"heartbeat\", \"id\": " << lease_id << "}";
  return os.str();
}

std::string msg_lease_done(std::uint64_t lease_id) {
  std::ostringstream os;
  os << "{\"type\": \"lease_done\", \"id\": " << lease_id << "}";
  return os.str();
}

std::string msg_shutdown() { return "{\"type\": \"shutdown\"}"; }

// The CoordinatorStats counters by wire name, in wire order: the progress
// writer and run_query's parser both walk this one table.
constexpr struct {
  const char* name;
  std::size_t CoordinatorStats::*member;
} kStatFields[] = {
    {"workers_seen", &CoordinatorStats::workers_seen},
    {"workers_rejected", &CoordinatorStats::workers_rejected},
    {"leases_granted", &CoordinatorStats::leases_granted},
    {"leases_reassigned", &CoordinatorStats::leases_reassigned},
    {"duplicate_results", &CoordinatorStats::duplicate_results},
    {"local_fallback_points", &CoordinatorStats::local_fallback_points},
    {"protocol_errors", &CoordinatorStats::protocol_errors},
    {"clients_seen", &CoordinatorStats::clients_seen},
    {"queries_answered", &CoordinatorStats::queries_answered},
};

/// Decode a query frame (run_query encodes it). An absent `what` stays
/// empty and is answered with an error; selectors that do not parse are
/// wildcards.
QueryRequest parse_query(const std::string& payload) {
  QueryRequest q;
  q.what.clear();
  json::find_string(payload, "what", q.what);
  std::string s;
  if (json::find_string(payload, "algorithm", s)) q.algorithm = s;
  if (json::find_string(payload, "family", s)) q.family = s;
  if (json::find_string(payload, "mix", s)) q.mix = s;
  std::uint32_t u = 0;
  if (json::find_u32(payload, "n", u)) q.n = u;
  if (json::find_u32(payload, "k", u)) q.k = u;
  if (json::find_u32(payload, "f", u)) q.f = u;
  std::uint64_t v = 0;
  if (json::find_u64(payload, "index", v)) q.index = v;
  if (json::find_u64(payload, "derived_seed", v)) q.derived_seed = v;
  return q;
}

std::string msg_result(std::uint64_t id, const QueryReply& r) {
  std::ostringstream h;
  h << "{\"type\": \"result\", \"id\": " << id << ", \"what\": \""
    << json::escape(r.what) << "\", \"count\": " << r.bodies.size();
  if (!r.error.empty()) h << ", \"error\": \"" << json::escape(r.error) << "\"";
  if (r.pending) h << ", \"pending\": true";
  if (r.what == "progress") {
    h << ", ";
    write_progress_fields(h, r);
  }
  h << "}";
  return h.str();
}

// Each shimmed connection uses schedule seed (base seed + connection
// index): still a pure function of the config, but a schedule that eats
// the handshake frame cannot livelock reconnects by eating it identically
// on every redial.
net::FaultConfig offset_fault(net::FaultConfig cfg, std::uint64_t index) {
  cfg.seed += index;
  return cfg;
}

}  // namespace

void write_progress_fields(std::ostream& os, const QueryReply& r) {
  os << "\"total\": " << r.total << ", \"completed\": " << r.completed
     << ", \"restored\": " << r.restored << ", \"cells\": " << r.cells
     << ", \"done\": " << (r.done ? "true" : "false");
  for (const auto& field : kStatFields)
    os << ", \"" << field.name << "\": " << r.stats.*field.member;
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

Coordinator::Coordinator(SweepSpec spec, ServiceConfig svc)
    : spec_(std::move(spec)), svc_(std::move(svc)), listener_(svc_.port) {}

SweepResult Coordinator::serve(const std::atomic<bool>* stop) {
  SweepLedger ledger(spec_, std::chrono::milliseconds(svc_.lease_timeout_ms));
  CoordinatorStats& stats = ledger.stats();

  struct WorkerSlot {
    std::unique_ptr<net::Channel> ch;
    bool greeted = false;
    bool is_client = false;  ///< sent a query: never leased, never reaped
    Clock::time_point connected_at;
  };
  std::map<int, WorkerSlot> slots;
  int next_slot = 0;
  Clock::time_point last_live = Clock::now();

  const auto drop_worker = [&](int sid) {
    const auto it = slots.find(sid);
    if (it == slots.end()) return;
    ledger.release(sid);
    it->second.ch->shutdown();
    slots.erase(it);
  };

  // Handle one frame from slot `sid`; false = drop the connection.
  const auto handle_frame = [&](int sid, const std::string& payload) -> bool {
    WorkerSlot& w = slots.at(sid);
    std::string type;
    if (!json::find_string(payload, "type", type)) {
      // No "type": a result — a verbatim checkpoint record.
      auto entry = parse_checkpoint_line(payload);
      if (!entry || entry->spec != ledger.spec_fingerprint())
        ++stats.protocol_errors;
      else
        ledger.merge(sid, std::move(entry->result), Clock::now());
      return true;
    }
    std::uint64_t id = 0;
    json::find_u64(payload, "id", id);
    if (type == "query") {
      if (!w.is_client) {
        w.is_client = true;
        ++stats.clients_seen;
      }
      // One flat `result` header echoing the query id, then `count` body
      // frames byte-identical to the report's per-cell/per-point objects.
      const QueryReply reply = ledger.answer(parse_query(payload));
      if (!w.ch->send_frame(msg_result(id, reply))) return false;
      for (const std::string& body : reply.bodies)
        if (!w.ch->send_frame(body)) return false;
      ++stats.queries_answered;
      return true;
    }
    if (type == "hello") {
      if (ledger.complete()) {
        // The grid finished while we kept serving queries: a worker
        // (re)dialing in gets its shutdown at the handshake and exits
        // cleanly instead of waiting for leases that will never come.
        w.ch->send_frame(msg_shutdown());
        return false;
      }
      std::uint64_t wspec = 0;
      std::uint64_t wgrid = 0;
      if (json::find_u64(payload, "spec", wspec) &&
          json::find_u64(payload, "grid", wgrid) &&
          wspec == ledger.spec_fingerprint() &&
          wgrid == ledger.grid_fingerprint()) {
        w.greeted = true;
        return w.ch->send_frame(msg_hello_ok(svc_.lease_timeout_ms));
      }
      ++stats.workers_rejected;
      w.ch->send_frame(msg_reject("grid/spec fingerprint mismatch"));
      return false;
    }
    if (type == "heartbeat")
      ledger.heartbeat(sid, id, Clock::now());
    else if (type == "lease_done")
      ledger.lease_done(sid, id);
    else
      ++stats.protocol_errors;
    return true;
  };

  // serve_after_finish keeps the loop answering queries once the grid is
  // done; the stop flag then ends serving WITHOUT marking the sweep
  // aborted (it did finish). Workers are dismissed the moment the grid
  // completes so only client connections outlive it.
  bool serving = svc_.serve_after_finish;
  bool workers_dismissed = false;
  while (true) {
    if (stop && stop->load()) {
      ledger.abort();
      serving = false;
    }
    if (ledger.aborted()) break;
    if (ledger.complete() && !serving) break;

    // Accept every pending connection (shimmed when fault injection is on).
    while (auto conn = listener_.accept()) {
      ++stats.workers_seen;
      WorkerSlot w;
      w.ch = net::maybe_shim(std::move(conn),
                             offset_fault(svc_.fault, stats.workers_seen - 1));
      w.connected_at = Clock::now();
      slots.emplace(next_slot++, std::move(w));
    }

    // Drain buffered frames from every worker.
    std::vector<int> dead;
    for (auto& [sid, w] : slots) {
      for (;;) {
        std::string payload;
        net::RecvStatus st;
        try {
          st = w.ch->recv_frame(payload, 0);
        } catch (const std::exception&) {
          ++stats.protocol_errors;  // oversized frame: not one of ours
          dead.push_back(sid);
          break;
        }
        if (st == net::RecvStatus::kFrame) {
          if (!handle_frame(sid, payload)) {
            dead.push_back(sid);
            break;
          }
          if (ledger.aborted()) break;
          continue;
        }
        if (st != net::RecvStatus::kTimeout) dead.push_back(sid);
        break;
      }
      if (ledger.aborted()) break;
    }
    for (const int sid : dead) drop_worker(sid);
    dead.clear();  // grant-phase failures below must not re-drop these
    if (ledger.aborted()) break;
    if (ledger.complete() && !serving) break;

    const auto now = Clock::now();

    // Expire leases whose holder went silent past the deadline, and reap
    // connections that never completed the hello (their hello or our
    // hello_ok may have been dropped; the worker will redial). Clients
    // never greet: they are exempt.
    std::vector<int> expired = ledger.expired(now);
    for (const auto& [sid, w] : slots)
      if (!w.greeted && !w.is_client &&
          ms_between(w.connected_at, now) >
              static_cast<std::int64_t>(svc_.lease_timeout_ms))
        expired.push_back(sid);
    for (const int sid : expired) drop_worker(sid);

    if (ledger.complete()) {
      // Grid complete, still serving queries: dismiss the workers once —
      // they exit kShutdown instead of idling against a finished sweep —
      // and keep polling for clients until the stop flag ends serving.
      if (!workers_dismissed) {
        std::vector<int> goodbye;
        for (const auto& [sid, w] : slots)
          if (!w.is_client) goodbye.push_back(sid);
        for (const int sid : goodbye) {
          slots.at(sid).ch->send_frame(msg_shutdown());
          drop_worker(sid);
        }
        workers_dismissed = true;
      }
    } else {
      // Grant leases to idle greeted workers, front of the queue first.
      for (auto& [sid, w] : slots) {
        if (!w.greeted) continue;
        bool sent = true;
        ledger.grant(sid, svc_.lease_points, now,
                     [&](std::uint64_t id, const std::vector<std::size_t>& b) {
                       return sent = w.ch->send_frame(msg_lease(id, b));
                     });
        if (!sent) dead.push_back(sid);
      }
      for (const int sid : dead) drop_worker(sid);

      // Graceful degradation: no WORKER reachable for idle_grace_ms with
      // work still pending => run the remainder in-process with the
      // executor run_sweep uses, instead of hanging on an empty fleet.
      // Clients don't run points, so a connected query client must not
      // keep a workerless sweep waiting.
      if (std::any_of(slots.begin(), slots.end(),
                      [](const auto& s) { return !s.second.is_client; })) {
        last_live = now;
      } else if (svc_.local_fallback && ledger.unleased_work() &&
                 ms_between(last_live, now) >=
                     static_cast<std::int64_t>(svc_.idle_grace_ms)) {
        ledger.run_pending(stop);
        continue;  // re-evaluate: a late worker may have connected meanwhile
      }
    }

    // Wait for traffic (or a new connection) with a bounded nap so stop
    // flags and lease deadlines are honored promptly.
    std::vector<pollfd> fds;
    fds.reserve(slots.size() + 1);
    if (listener_.fd() >= 0)
      fds.push_back({listener_.fd(), POLLIN, 0});
    for (const auto& [sid, w] : slots)
      if (w.ch->fd() >= 0) fds.push_back({w.ch->fd(), POLLIN, 0});
    ::poll(fds.empty() ? nullptr : fds.data(),
           static_cast<nfds_t>(fds.size()), 20);
  }

  // Orderly goodbye: workers still connected exit kShutdown instead of
  // burning their reconnect budget against a vanished coordinator — and
  // the listener closes so a worker redialing a finished sweep is refused
  // instead of queued in a backlog nobody will accept.
  for (auto& [sid, w] : slots) {
    w.ch->send_frame(msg_shutdown());
    w.ch->shutdown();
  }
  listener_.close();
  stats_ = stats;
  return ledger.finish();
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

std::string to_string(WorkerExit e) {
  switch (e) {
    case WorkerExit::kShutdown: return "shutdown";
    case WorkerExit::kLostCoordinator: return "lost_coordinator";
    case WorkerExit::kRejected: return "rejected";
    case WorkerExit::kKilled: return "killed";
  }
  return "unknown";
}

WorkerExit run_sweep_worker(const SweepSpec& spec, const WorkerConfig& cfg) {
  const std::vector<SweepPoint> grid = expand_grid(spec);
  const std::uint64_t fp = spec_fingerprint(spec);
  const std::uint64_t gfp = grid_fingerprint(spec, grid);
  Rng jitter(cfg.jitter_seed);

  // The kill hook counts EXECUTED points across reconnects: die after the
  // N-th run_point, before its result leaves, so that point is provably
  // lost with us and the coordinator must reassign it.
  std::uint64_t points_run = 0;
  const auto kill_due = [&] {
    return cfg.fault.enabled && cfg.fault.kill_after_points != 0 &&
           points_run >= cfg.fault.kill_after_points;
  };

  std::uint64_t conn_index = 0;
  for (;;) {  // reconnect loop
    auto conn = net::dial_with_backoff(cfg.host, cfg.port, cfg.backoff, jitter);
    if (!conn) return WorkerExit::kLostCoordinator;
    std::unique_ptr<net::Channel> ch =
        net::maybe_shim(std::move(conn), offset_fault(cfg.fault, conn_index++));

    if (!ch->send_frame(msg_hello(cfg.name, fp, gfp))) continue;
    std::string payload;
    if (ch->recv_frame(payload, static_cast<int>(cfg.hello_timeout_ms)) !=
        net::RecvStatus::kFrame)
      continue;  // hello or hello_ok lost in transit: redial
    std::string type;
    if (!json::find_string(payload, "type", type)) continue;
    if (type == "reject") return WorkerExit::kRejected;
    if (type == "shutdown") return WorkerExit::kShutdown;  // sweep finished
    if (type != "hello_ok") continue;

    for (;;) {  // session loop
      const net::RecvStatus st =
          ch->recv_frame(payload, static_cast<int>(cfg.idle_recv_ms));
      if (st == net::RecvStatus::kTimeout) {
        // Idle: ping so a long gap between leases never reads as death.
        if (!ch->send_frame(msg_heartbeat(0))) break;
        continue;
      }
      if (st != net::RecvStatus::kFrame) break;  // reconnect
      if (!json::find_string(payload, "type", type)) continue;
      if (type == "shutdown") return WorkerExit::kShutdown;
      if (type != "lease") continue;

      std::uint64_t lease_id = 0;
      std::string points;
      // A lease whose id does not parse (or is the reserved 0) must be
      // rejected outright: running it would stream the batch under lease
      // 0, whose lease_done the coordinator discards — the real lease
      // would then expire spuriously and re-run everything. Ignoring the
      // frame lets the coordinator's deadline reassign the batch cleanly.
      if (!json::find_u64(payload, "id", lease_id) || lease_id == 0 ||
          !json::find_string(payload, "points", points))
        continue;
      std::stringstream ss(points);
      std::size_t idx = 0;
      bool conn_lost = false;
      while (ss >> idx) {
        if (idx >= grid.size()) return WorkerExit::kRejected;
        // Heartbeat before each point: extends the lease deadline so it
        // only needs to outlast ONE point's runtime, not the whole batch.
        if (!ch->send_frame(msg_heartbeat(lease_id))) {
          conn_lost = true;
          break;
        }
        PointResult r = run_point(spec, grid[idx]);
        ++points_run;
        if (kill_due()) {
          if (cfg.fault.kill_hard) std::_Exit(137);  // simulated SIGKILL
          ch->shutdown();
          return WorkerExit::kKilled;
        }
        std::ostringstream line;
        write_checkpoint_line(line, r, fp);
        std::string record = line.str();
        if (!record.empty() && record.back() == '\n') record.pop_back();
        if (!ch->send_frame(record)) {
          conn_lost = true;
          break;
        }
      }
      if (conn_lost) break;
      if (!ch->send_frame(msg_lease_done(lease_id))) break;
    }
  }
}

// ---------------------------------------------------------------------------
// Query client
// ---------------------------------------------------------------------------

std::optional<QueryReply> run_query(const QueryRequest& req,
                                    const QueryClientConfig& cfg) {
  Rng jitter(cfg.jitter_seed);
  std::uint64_t conn_index = 0;
  std::uint64_t qid = 0;
  for (std::uint32_t attempt = 0; attempt < cfg.attempts; ++attempt) {
    // Every attempt runs on a FRESH connection: a shim schedule that ate
    // part of the response gets a new (offset) schedule on redial, and no
    // stale frame from a timed-out attempt can alias the new response.
    auto conn = net::dial_with_backoff(cfg.host, cfg.port, cfg.backoff, jitter);
    if (!conn) continue;
    std::unique_ptr<net::Channel> ch =
        net::maybe_shim(std::move(conn), offset_fault(cfg.fault, conn_index++));

    const std::uint64_t id = ++qid;
    std::ostringstream os;
    os << "{\"type\": \"query\", \"id\": " << id << ", \"what\": \""
       << json::escape(req.what) << "\"";
    if (req.algorithm)
      os << ", \"algorithm\": \"" << json::escape(*req.algorithm) << "\"";
    if (req.family)
      os << ", \"family\": \"" << json::escape(*req.family) << "\"";
    if (req.mix) os << ", \"mix\": \"" << json::escape(*req.mix) << "\"";
    if (req.n) os << ", \"n\": " << *req.n;
    if (req.k) os << ", \"k\": " << *req.k;
    if (req.f) os << ", \"f\": " << *req.f;
    if (req.derived_seed) os << ", \"derived_seed\": " << *req.derived_seed;
    if (req.index) os << ", \"index\": " << *req.index;
    os << "}";
    if (!ch->send_frame(os.str())) continue;

    std::string payload;
    net::RecvStatus st;
    try {
      st = ch->recv_frame(payload, static_cast<int>(cfg.timeout_ms));
    } catch (const std::exception&) {
      continue;
    }
    if (st != net::RecvStatus::kFrame) continue;
    std::string type;
    std::uint64_t rid = 0;
    if (!json::find_string(payload, "type", type) || type != "result" ||
        !json::find_u64(payload, "id", rid) || rid != id)
      continue;  // not our header (e.g. a shutdown frame): retry afresh

    QueryReply reply;
    json::find_string(payload, "what", reply.what);
    json::find_string(payload, "error", reply.error);
    json::find_bool(payload, "pending", reply.pending);
    std::uint64_t count = 0;
    json::find_u64(payload, "count", count);
    json::find_u64(payload, "total", reply.total);
    json::find_u64(payload, "completed", reply.completed);
    json::find_u64(payload, "restored", reply.restored);
    json::find_u64(payload, "cells", reply.cells);
    json::find_bool(payload, "done", reply.done);
    for (const auto& field : kStatFields) {
      std::uint64_t v = 0;
      if (json::find_u64(payload, field.name, v)) reply.stats.*field.member = v;
    }

    bool lost_body = false;
    reply.bodies.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      std::string body;
      try {
        if (ch->recv_frame(body, static_cast<int>(cfg.timeout_ms)) !=
            net::RecvStatus::kFrame) {
          lost_body = true;
          break;
        }
      } catch (const std::exception&) {
        lost_body = true;
        break;
      }
      reply.bodies.push_back(std::move(body));
    }
    if (lost_body) continue;  // a dropped body frame: retry the whole query
    return reply;
  }
  return std::nullopt;
}

}  // namespace bdg::run
