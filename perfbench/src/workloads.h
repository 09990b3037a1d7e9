#pragma once
// The benchmark's named workloads. Each is expanded from a workload seed;
// the program under test receives only the expanded grids (and, through
// the query wire, the query mix).
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "run/service.h"
#include "run/sweep.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// Sub-grids, run in order with one sweep thread each. Checkpoint paths
  /// are left empty; the benchmark assigns them per repetition.
  std::vector<bdg::run::SweepSpec> grids;
  /// Run grids[0] through a Coordinator and two loopback workers instead
  /// of run_sweep (the service workload has exactly one grid).
  bool service = false;
  /// Service only: grid indices i with i % restore_every == 0 are restored
  /// from a checkpoint written during set-up.
  std::size_t restore_every = 0;
  /// Closed-loop client mix against grids[0], sent in order and cycled.
  std::vector<bdg::run::QueryRequest> queries;
};

/// Queries in a workload's mix, sent in order and cycled. A multiple of 8,
/// so every kind has its exact share.
inline constexpr std::size_t kQueryMixLength = 200;

/// "sweep_heavy", "sweep_wide", "service_query".
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Expand workload `name` from `seed`: the same seed gives the same grids
/// and query mix. Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// Query-kind index used by the per-kind latency split: 0 progress,
/// 1 cells with a selector, 2 cells with none (the full dump), 3 point.
[[nodiscard]] int query_kind(const bdg::run::QueryRequest& q);
inline constexpr const char* kQueryKinds[] = {"progress", "cells", "cells_all",
                                              "point"};
inline constexpr int kQueryKindCount = 4;

}  // namespace perfbench
