#pragma once

// The metric schema every workload prints: the end-to-end set of a timed
// run and the per-layer set of a traced run. Both are fixed lists, so
// every workload prints every name (a layer a workload never enters
// reads 0).

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/solver.hpp"

namespace perfbench {

struct EndToEnd {
  double setup_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double short_latency_mean_ms = 0.0;
  double throughput_rps = 0.0;
  double cells_per_s = 0.0;
  double ratio_mean = 0.0;
  double peak_rss_mb = 0.0;
};

void emit_end_to_end(Metrics& metrics, const EndToEnd& e2e);

/// Per-layer figures of one traced run. Sample vectors are reported as
/// `.p50` / `.p99`, in microseconds unless named otherwise.
struct LayerReport {
  std::vector<double> frame_us, parse_us, cache_key_us, cache_lookup_us,
      cache_insert_us, stats_rtt_us, selection_us, solve_us, check_us,
      lower_bound_us, render_us, aggregate_us, race_us, make_scenario_us;
  /// core.solve spans per registered solver name.
  std::map<std::string, std::vector<double>> solve_by_solver;
  double cache_hit_ratio = 0.0;
  double daemon_cache_hit_ratio = 0.0;
  double cache_evictions = 0.0;
  double residual_us = 0.0;
  double queue_depth_mean = 0.0;
  double in_flight_mean = 0.0;
  double shed = 0.0;
  double shrunk = 0.0;
  double timed_out_share = 0.0;
  double race_cancelled = 0.0;
  double pool_efficiency = 0.0;
  double pool_steals = 0.0;
  double pool_chunks = 0.0;
  double pool_cells = 0.0;
  double lag_p99_ms = 0.0;
  double latency_p99_ms = 0.0;        ///< Traced open loop, every request.
  double short_latency_p99_ms = 0.0;  ///< Traced open loop, no budget.
  double samples = 0.0;
  double coverage = 0.0;
  double spans = 0.0;
};

void emit_layers(Metrics& metrics, const LayerReport& layers,
                 const abt::core::SolverRegistry& registry);

/// One solver cell run through SolverRegistry::run, timed from outside.
struct TimedCell {
  abt::core::Solution sol;
  Clock::time_point start;
  Clock::time_point end;
};
[[nodiscard]] TimedCell run_timed_cell(
    const abt::core::SolverRegistry& registry, const abt::core::Solver& solver,
    const abt::core::ProblemInstance& inst, const abt::core::RunContext& ctx);

/// Records `cell` under `parent`: a `core.solve` span as long as
/// Solution::wall_ms (the solver's own run, which registry.run times),
/// then a `core.check` span for the rest of the call -- the registry's
/// applicability gate and its checker.
void record_cell(SpanLog& log, std::uint64_t id, std::int32_t parent,
                 const abt::core::Solver& solver, const TimedCell& cell);

/// Summed counters of every slot of the shared pool.
struct PoolCounters {
  double cells = 0.0;
  double chunks = 0.0;
  double steals = 0.0;
};
[[nodiscard]] PoolCounters pool_counters();

}  // namespace perfbench
