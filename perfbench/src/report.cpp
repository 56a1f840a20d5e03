#include "report.hpp"

#include <algorithm>

#include "engine/parallel.hpp"

namespace perfbench {

void emit_end_to_end(Metrics& metrics, const EndToEnd& e2e) {
  metrics.add("setup_s", e2e.setup_s, "s");
  metrics.add("latency_p50_ms", e2e.latency_p50_ms, "ms");
  metrics.add("latency_p95_ms", e2e.latency_p95_ms, "ms");
  metrics.add("short_latency_mean_ms", e2e.short_latency_mean_ms, "ms");
  metrics.add("throughput_rps", e2e.throughput_rps, "1/s");
  metrics.add("cells_per_s", e2e.cells_per_s, "1/s");
  metrics.add("ratio_mean", e2e.ratio_mean, "ratio");
  metrics.add("peak_rss_mb", e2e.peak_rss_mb, "MiB");
}

void emit_layers(Metrics& metrics, const LayerReport& l,
                 const abt::core::SolverRegistry& registry) {
  metrics.add_quantiles("service.frame_us", l.frame_us, "us");
  metrics.add_quantiles("service.parse_us", l.parse_us, "us");
  metrics.add_quantiles("service.cache_key_us", l.cache_key_us, "us");
  metrics.add_quantiles("service.cache_lookup_us", l.cache_lookup_us, "us");
  metrics.add_quantiles("service.cache_insert_us", l.cache_insert_us, "us");
  metrics.add("service.cache_hit_ratio", l.cache_hit_ratio, "ratio");
  metrics.add("service.daemon_cache_hit_ratio", l.daemon_cache_hit_ratio,
              "ratio");
  metrics.add("service.cache_evictions", l.cache_evictions, "count");
  metrics.add_quantiles("service.stats_rtt_us", l.stats_rtt_us, "us");
  metrics.add("service.residual_us", l.residual_us, "us");
  metrics.add("service.queue_depth_mean", l.queue_depth_mean, "count");
  metrics.add("service.in_flight_mean", l.in_flight_mean, "count");
  metrics.add("service.shed", l.shed, "count");
  metrics.add("service.shrunk", l.shrunk, "count");

  metrics.add_quantiles("core.selection_us", l.selection_us, "us");
  metrics.add_quantiles("core.solve_us", l.solve_us, "us");
  metrics.add_quantiles("core.check_us", l.check_us, "us");
  for (const abt::core::Solver& solver : registry.all()) {
    std::string name = solver.name;
    for (char& c : name) {
      if (c == '/') c = '.';
    }
    const auto it = l.solve_by_solver.find(solver.name);
    metrics.add("core.solve_us." + name + ".p50",
                it == l.solve_by_solver.end() ? 0.0
                                              : percentile(it->second, 0.5),
                "us");
  }
  metrics.add("core.timed_out_share", l.timed_out_share, "ratio");

  metrics.add_quantiles("engine.lower_bound_us", l.lower_bound_us, "us");
  metrics.add_quantiles("engine.render_us", l.render_us, "us");
  metrics.add_quantiles("engine.aggregate_us", l.aggregate_us, "us");
  metrics.add_quantiles("engine.race_us", l.race_us, "us");
  metrics.add("engine.race_cancelled", l.race_cancelled, "count");
  metrics.add("engine.pool_efficiency", l.pool_efficiency, "ratio");
  metrics.add("engine.pool_steals", l.pool_steals, "count");
  metrics.add("engine.pool_chunks", l.pool_chunks, "count");
  metrics.add("engine.pool_cells", l.pool_cells, "count");

  metrics.add_quantiles("gen.make_scenario_us", l.make_scenario_us, "us");
  metrics.add("loadgen.lag_p99_ms", l.lag_p99_ms, "ms");
  metrics.add("loadgen.latency_p99_ms", l.latency_p99_ms, "ms");
  metrics.add("loadgen.short_latency_p99_ms", l.short_latency_p99_ms, "ms");
  metrics.add("loadgen.samples", l.samples, "count");
  metrics.add("trace.coverage", l.coverage, "ratio");
  metrics.add("trace.spans", l.spans, "count");
}

TimedCell run_timed_cell(const abt::core::SolverRegistry& registry,
                         const abt::core::Solver& solver,
                         const abt::core::ProblemInstance& inst,
                         const abt::core::RunContext& ctx) {
  TimedCell cell;
  cell.start = Clock::now();
  cell.sol = registry.run(solver, inst, ctx);
  cell.end = Clock::now();
  return cell;
}

void record_cell(SpanLog& log, std::uint64_t id, std::int32_t parent,
                 const abt::core::Solver& solver, const TimedCell& cell) {
  const auto solve = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(cell.sol.wall_ms));
  const Clock::time_point solved = std::min(cell.end, cell.start + solve);
  log.record(id, "core.solve", cell.start, solved, parent, solver.name.c_str());
  log.record(id, "core.check", solved, cell.end, parent, solver.name.c_str());
}

PoolCounters pool_counters() {
  PoolCounters out;
  for (const abt::engine::WorkerStats& w :
       abt::engine::ThreadPool::shared().worker_stats()) {
    out.cells += static_cast<double>(w.cells_served);
    out.chunks += static_cast<double>(w.chunks_claimed);
    out.steals += static_cast<double>(w.steals);
  }
  return out;
}

}  // namespace perfbench
