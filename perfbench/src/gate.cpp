#include "gate.h"

#include <sstream>

#include "run/report.h"

namespace perfbench {

namespace {

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFU;
    h *= 0x100000001b3ULL;
  }
}

bdg::run::SweepResult without_timing(const bdg::run::SweepResult& r) {
  bdg::run::SweepResult z = r;
  z.wall_seconds = 0.0;
  for (bdg::run::PointResult& p : z.points) p.seconds = 0.0;
  for (bdg::run::CellAggregate& c : z.cells) c.mean_seconds = 0.0;
  return z;
}

}  // namespace

void WorkCounts::add(const WorkCounts& o) {
  points += o.points;
  skipped += o.skipped;
  ok += o.ok;
  failed += o.failed;
  saturated += o.saturated;
  rounds += o.rounds;
  simulated_rounds += o.simulated_rounds;
  resumes += o.resumes;
  messages += o.messages;
  moves += o.moves;
  fnv(digest, o.digest);
}

WorkCounts count_work(const bdg::run::SweepResult& r,
                      std::size_t restored_every) {
  WorkCounts c;
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    if (restored_every != 0 && i % restored_every == 0) continue;
    const bdg::run::PointResult& p = r.points[i];
    ++c.points;
    if (p.saturated) ++c.saturated;
    if (p.skipped) {
      ++c.skipped;
      continue;
    }
    if (p.ok)
      ++c.ok;
    else
      ++c.failed;
    c.rounds += p.stats.rounds;
    c.simulated_rounds += p.stats.simulated_rounds;
    c.resumes += p.stats.resumes;
    c.messages += p.stats.messages;
    c.moves += p.stats.moves;
    fnv(c.digest, p.ok ? 1 : 0);
    fnv(c.digest, static_cast<std::uint64_t>(p.stats.rounds.raw()));
    fnv(c.digest, static_cast<std::uint64_t>(p.stats.rounds.raw() >> 64));
    fnv(c.digest, p.stats.moves);
    fnv(c.digest, p.stats.messages);
    fnv(c.digest, static_cast<std::uint64_t>(p.planned_rounds.raw()));
    fnv(c.digest, static_cast<std::uint64_t>(p.planned_rounds.raw() >> 64));
    fnv(c.digest, p.derived_seed);
  }
  return c;
}

std::uint64_t failed_points(const WorkCounts& c) {
  return c.failed + c.saturated;
}

std::string points_csv_no_timing(const bdg::run::SweepResult& r) {
  std::ostringstream os;
  bdg::run::write_points_csv(os, without_timing(r));
  return os.str();
}

std::string cells_csv_no_timing(const bdg::run::SweepResult& r) {
  std::ostringstream os;
  bdg::run::write_cells_csv(os, without_timing(r));
  return os.str();
}

std::optional<std::string> first_mismatch(const std::string& expected,
                                          const std::string& actual) {
  if (expected == actual) return std::nullopt;
  std::istringstream e(expected);
  std::istringstream a(actual);
  std::string le;
  std::string la;
  for (std::size_t line = 1;; ++line) {
    const bool he = static_cast<bool>(std::getline(e, le));
    const bool ha = static_cast<bool>(std::getline(a, la));
    if (!he && !ha) return "line endings differ";
    if (he != ha || le != la)
      return "line " + std::to_string(line) + ": expected '" +
             (he ? le : "<end>") + "', got '" + (ha ? la : "<end>") + "'";
  }
}

std::vector<std::string> expected_cell_bodies(
    const std::vector<bdg::run::CellAggregate>& cells,
    const bdg::run::QueryRequest& q) {
  std::vector<std::string> out;
  for (const bdg::run::CellAggregate& c : cells) {
    if (q.algorithm && *q.algorithm != bdg::core::to_string(c.algorithm))
      continue;
    if (q.family && *q.family != c.family) continue;
    if (q.mix && *q.mix != bdg::run::mix_to_string(c.mix)) continue;
    if (q.n && *q.n != c.n) continue;
    if (q.k && *q.k != (c.k == 0 ? c.n : c.k)) continue;
    if (q.f && *q.f != c.f) continue;
    std::ostringstream os;
    bdg::run::write_cell_json(os, c);
    out.push_back(os.str());
  }
  return out;
}

std::optional<std::string> check_reply(const bdg::run::SweepResult& report,
                                       const bdg::run::QueryRequest& q,
                                       const bdg::run::QueryReply& reply) {
  if (!reply.error.empty()) return "query rejected: " + reply.error;
  if (q.what == "cells") {
    const std::vector<std::string> want = expected_cell_bodies(report.cells, q);
    if (want == reply.bodies) return std::nullopt;
    return "cells reply differs from the report's cell JSON (" +
           std::to_string(reply.bodies.size()) + " bodies, expected " +
           std::to_string(want.size()) + ")";
  }
  if (q.what == "point" && (q.index || q.derived_seed)) {
    // The coordinator indexes derived seeds in grid order, so on a
    // collision the last point wins; search from the back to match.
    std::size_t idx = report.points.size();
    if (q.index) {
      idx = static_cast<std::size_t>(*q.index);
    } else {
      for (std::size_t i = report.points.size(); i-- > 0;)
        if (report.points[i].derived_seed == *q.derived_seed) {
          idx = i;
          break;
        }
    }
    if (idx >= report.points.size()) return "point not in the report";
    std::ostringstream os;
    bdg::run::write_point_json(os, report.points[idx]);
    if (reply.bodies.size() == 1 && reply.bodies[0] == os.str())
      return std::nullopt;
    return "point reply differs from the report's point JSON (index " +
           std::to_string(idx) + ")";
  }
  return std::nullopt;
}

}  // namespace perfbench
