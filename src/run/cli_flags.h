#pragma once
// Shared command-line grid parsing for the sweep front-ends (sweep_cli,
// sweepd, sweep_worker). The coordinator and its workers must expand the
// SAME grid from the same flags — grid_fingerprint rejects drift at the
// hello handshake, but sharing the parser removes the temptation to drift
// in the first place. sweep_cli delegates here too, so one flag vocabulary
// drives single-shot, distributed and worker processes alike. Every
// front-end (sweep_query included) parses numbers through parse_unsigned,
// and sweep_cli and sweepd end through the same finish_sweep.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "run/sweep.h"

namespace bdg::run {

/// The value of `--flag=value` in `arg`; nullopt when `arg` is another
/// flag.
[[nodiscard]] std::optional<std::string> value_of(const std::string& arg,
                                                  const char* flag);

/// Parse `text`, the value of `flag`, as a plain decimal no larger than
/// `max`. A sign, any non-digit, an empty value or a value past `max`
/// throws std::invalid_argument naming the flag — never a silent
/// narrowing.
[[nodiscard]] std::uint64_t parse_unsigned(const std::string& text,
                                           const char* flag, std::uint64_t max);

/// parse_unsigned bounded by the range of T.
template <typename T>
[[nodiscard]] T parse_unsigned(const std::string& text, const char* flag) {
  return static_cast<T>(
      parse_unsigned(text, flag, std::numeric_limits<T>::max()));
}

/// A SweepSpec with the CLI defaults (families {"er"}, sizes {8,12,16})
/// rather than the library defaults — the starting point every sweep
/// front-end parses flags into.
[[nodiscard]] SweepSpec default_cli_spec();

/// CLI algorithm names in registry order (also the help-text order).
struct CliAlgorithm {
  const char* name;
  core::Algorithm algorithm;
};
[[nodiscard]] const std::vector<CliAlgorithm>& cli_algorithms();
[[nodiscard]] std::optional<core::Algorithm> algorithm_from_cli(
    const std::string& name);

/// Outcome of parse_grid_flags: either ok (with any unrecognized argv
/// entries — including --help — in `leftover`, in order, for the caller's
/// own flags), or !ok with a printable error (no program-name prefix).
struct GridFlagsResult {
  bool ok = true;
  std::string error;
  std::vector<std::string> leftover;
};

/// Parse the shared grid/scenario/execution flags (--algorithms,
/// --families, --sizes, --k, --byz, --seeds, --strategy, --mix,
/// --no-clamp, --require-trivial-quotient, --common-graphs, --er-p,
/// --base-seed, --threads, --shard, --resume, --no-timing) into `spec`.
/// Malformed values (unknown names, bad numbers, i >= m shards) fail the
/// parse; unknown flags are returned, not rejected, so each front-end can
/// layer its own flags on top.
[[nodiscard]] GridFlagsResult parse_grid_flags(int argc, char** argv,
                                               SweepSpec& spec);

/// Fill spec.algorithms with the general-graph default (every algorithm
/// except the ring-only baseline) when no --algorithms flag was given.
void apply_default_algorithms(SweepSpec& spec);

/// Print the shared flags' help sections (grid, scenario, shared
/// execution flags). Name lists are separate so front-ends can append
/// their own sections in between.
void print_grid_flag_help(std::FILE* to);

/// Print the accepted algorithm and strategy name lists.
void print_grid_name_lists(std::FILE* to);

/// Parse a "HOST:PORT" (or bare "PORT", meaning 127.0.0.1) --connect
/// value into host/port. Throws std::invalid_argument on a host that is
/// not dotted IPv4 (the only form net::dial accepts) or a malformed or
/// zero port — shared by sweep_worker and sweep_query so the two
/// front-ends cannot drift in address spelling.
void parse_host_port(const std::string& text, std::string& host,
                     std::uint16_t& port);

/// Report destinations shared by sweep_cli and sweepd.
struct ReportFlags {
  std::string points_csv, cells_csv, json;
  bool quiet = false;
};

/// Take `arg` into `out` if it is a report flag (--points-csv, --cells-csv,
/// --json, --quiet); false otherwise.
[[nodiscard]] bool parse_report_flag(const std::string& arg, ReportFlags& out);

/// Print the report flags' help section.
void print_report_flag_help(std::FILE* to);

/// The common tail of sweep_cli and sweepd: write the requested reports
/// (points CSV on stdout when none is requested), print the summary line
/// `[prog: N points, ... from checkpoint<detail>, Ts]` unless quiet, and
/// return the exit code — 4 when a point saturated 128-bit round
/// accounting (the first offender is named on stderr), 1 on failed points
/// or an unwritable report, 3 when the sweep aborted, else 0.
[[nodiscard]] int finish_sweep(const char* prog, const SweepResult& result,
                               const ReportFlags& out,
                               const std::string& detail = "");

}  // namespace bdg::run
