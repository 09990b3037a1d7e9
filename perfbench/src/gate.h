#pragma once
// The benchmark's correctness gate and exact work counters. A run is
// correct only when every non-skipped point satisfies Definition 1, no
// point saturated, the merged reports match an in-process single-shot
// sweep byte for byte (timing columns zeroed), and every query body equals
// the report's JSON for the same selector.
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "run/service.h"
#include "run/sweep.h"

namespace perfbench {

/// Deterministic work a sweep result represents: exact counts, repeatable
/// for a given workload seed on every machine and thread count.
struct WorkCounts {
  std::uint64_t points = 0;     ///< grid points (skipped included)
  std::uint64_t skipped = 0;
  std::uint64_t ok = 0;         ///< non-skipped points meeting Definition 1
  std::uint64_t failed = 0;     ///< non-skipped points that do not
  std::uint64_t saturated = 0;  ///< skipped because the bound saturated
  bdg::core::Round rounds = 0;  ///< charged rounds, summed (saturating)
  std::uint64_t simulated_rounds = 0;
  std::uint64_t resumes = 0;
  std::uint64_t messages = 0;
  std::uint64_t moves = 0;
  /// FNV-1a over the deterministic report columns of every non-skipped
  /// point in grid order: ok, rounds, moves, messages, planned_rounds,
  /// derived_seed.
  std::uint64_t digest = 0xcbf29ce484222325ULL;

  void add(const WorkCounts& o);
  [[nodiscard]] bool operator==(const WorkCounts& o) const = default;
};

/// Counts over r.points; with `restored_every` > 0 the points whose grid
/// index is a multiple of it are left out (they were restored from a
/// checkpoint, not run).
[[nodiscard]] WorkCounts count_work(const bdg::run::SweepResult& r,
                                    std::size_t restored_every = 0);

/// Definition 1 failures plus saturated points: the operations the gate
/// counts as failed among a result's points.
[[nodiscard]] std::uint64_t failed_points(const WorkCounts& c);

/// Points / cells CSV with every wall-clock field zeroed, so a merged
/// distributed result and a single-shot one can be compared byte for byte.
[[nodiscard]] std::string points_csv_no_timing(const bdg::run::SweepResult& r);
[[nodiscard]] std::string cells_csv_no_timing(const bdg::run::SweepResult& r);

/// nullopt when `expected == actual`, else a one-line description of the
/// first differing line.
[[nodiscard]] std::optional<std::string> first_mismatch(
    const std::string& expected, const std::string& actual);

/// The bodies a `cells` query must return for `q`, rendered from a report's
/// cell aggregates with the same selector rules the coordinator applies.
[[nodiscard]] std::vector<std::string> expected_cell_bodies(
    const std::vector<bdg::run::CellAggregate>& cells,
    const bdg::run::QueryRequest& q);

/// Check one query reply against the finished report: a `cells` reply must
/// equal expected_cell_bodies, a `point` reply (by index or derived seed)
/// the report's point JSON.
/// nullopt = consistent (progress replies always are).
[[nodiscard]] std::optional<std::string> check_reply(
    const bdg::run::SweepResult& report, const bdg::run::QueryRequest& q,
    const bdg::run::QueryReply& reply);

}  // namespace perfbench
