// campaign-exact and campaign-large: engine::run_campaign in-process on
// the shared pool at 4 threads, no budget.
//
// Timed run: back-to-back campaigns for the run's seconds, each on its own
// base seed derived from --seed, with set-up probes (a registry build plus
// a pool grown to 4 workers) before the first campaign and after each one;
// setup_s is their median. The first campaign is run again at the end to
// check that its aggregates repeat.
// Traced run: the first campaign's cells replayed serially with a span per
// layer, then the pool's worker_stats() deltas around that campaign run at
// 4 threads.

#include <unistd.h>

#include <iostream>
#include <memory>
#include <sstream>
#include <utility>

#include "common.hpp"
#include "engine/builtin_solvers.hpp"
#include "engine/campaign.hpp"
#include "engine/parallel.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = abt::core;
namespace engine = abt::engine;

constexpr int kThreads = 4;

/// The grids of one campaign of the workload, run back to back under the
/// base seed `seed`.
///
/// campaign-exact leaves the two exponential active-family searches out of
/// its main grid: over 160 seeds one `active/exact` cell on a slotted n=12
/// instance (horizon 24) took 24 ms at the median and 7.5 s at the worst,
/// and `active/multi-window-exact` ranged from declining to over 1 s at any
/// size it accepts. With them, a campaign's wall time was a draw of the
/// seed (the campaign waits for its slowest cell). `active/exact` runs
/// instead on a second, small-horizon slotted grid, where its worst cell
/// over 100 seeds took 13 ms.
std::vector<engine::CampaignGrid> grids_of(const RunArgs& args,
                                           std::uint64_t seed) {
  engine::CampaignGrid grid;
  grid.base.seed = seed;
  if (args.workload == "campaign-large") {
    grid.scenarios = {"interval", "flexible", "bursty", "weighted",
                      "weighted-flexible"};
    grid.ns = {args.smoke ? 256 : 2048};
    grid.gs = {4};
    grid.trials = args.smoke ? 1 : 2;
    return {grid};
  }
  grid.scenarios = {"interval", "flexible",          "bursty",
                    "weighted", "weighted-flexible", "slotted",
                    "multi-window"};
  grid.ns = args.smoke ? std::vector<int>{12} : std::vector<int>{12, 24, 48};
  grid.gs = args.smoke ? std::vector<int>{2} : std::vector<int>{2, 4};
  grid.trials = args.smoke ? 2 : 32;
  grid.scenario_solvers["slotted"] = {
      "active/minimal-feasible", "active/minimal-densest",
      "active/lp-rounding", "active/unit-greedy"};
  grid.scenario_solvers["multi-window"] = {"active/multi-window-minimal"};

  engine::CampaignGrid exact;
  exact.base.seed = seed;
  exact.scenarios = {"slotted"};
  exact.ns = args.smoke ? std::vector<int>{8} : std::vector<int>{8, 12};
  exact.gs = grid.gs;
  exact.horizons = {12.0};
  exact.trials = grid.trials;
  return {grid, exact};
}

/// Base seed of the `index`-th campaign of a run. Every campaign draws new
/// instances (trial t of a point uses base seed + t), so a run's figures
/// are medians over many instance sets rather than one set's luck.
std::uint64_t campaign_seed(std::uint64_t seed, std::size_t index) {
  return mix_seed(seed, index) % 1000000007ULL;
}

/// The checks every campaign report must pass; returns the verified cells
/// and adds the per-aggregate ratios (for the determinism check).
double check_campaign(const engine::CampaignReport& report, Ledger& ledger,
                      std::vector<double>* ratios, double* ratio_sum,
                      double* ratio_count) {
  double verified = 0.0;
  for (const engine::CampaignPoint& point : report.points) {
    const std::string where = point.spec.name + " n=" +
                              std::to_string(point.spec.n) + " g=" +
                              std::to_string(point.spec.g);
    for (const engine::SolverAggregate& agg : point.aggregates) {
      for (int i = 0; i < agg.runs; ++i) ledger.attempt();
      if (agg.runs != agg.ok + agg.declined) {
        ledger.fail(where + " " + agg.solver + ": runs != ok + declined");
      }
      for (int i = agg.feasible; i < agg.ok; ++i) {
        ledger.fail(where + " " + agg.solver + ": infeasible cell");
      }
      verified += agg.feasible;
      ratios->push_back(agg.ratio_mean);
      *ratio_sum += agg.ratio_mean * agg.ratio_count;
      *ratio_count += agg.ratio_count;
    }
    if (point.infeasible_cells != 0) {
      ledger.fail(where + ": infeasible_cells " +
                  std::to_string(point.infeasible_cells));
    }
  }
  return verified;
}

/// Appends `probes` set-up times: a registry build plus a pool grown to
/// kThreads workers. The process's first probe is the real set-up, the
/// first touch of shared_registry() and the shared pool's resize. Later
/// ones build a fresh registry and a private pool, so the shared pool's
/// workers, and the memory they hold, stay as the campaigns left them.
void probe_setup(int probes, std::vector<double>* samples) {
  for (int i = 0; i < probes; ++i) {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<engine::ThreadPool> probe;
    if (samples->empty()) {
      (void)engine::shared_registry();
      engine::ThreadPool::shared().resize(kThreads);
    } else {
      const core::SolverRegistry fresh = engine::builtin_registry();
      (void)fresh.size();
      probe = std::make_unique<engine::ThreadPool>(kThreads);
    }
    samples->push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
}

/// Set-up probes before the first campaign and after each one. Spread over
/// the run, one slow stretch of the host moves a few samples, not the
/// median.
constexpr int kSetupProbesFirst = 101;
constexpr int kSetupProbesBetween = 25;

engine::CampaignOptions campaign_options() {
  engine::CampaignOptions options;
  options.threads = kThreads;
  return options;
}

/// One campaign's outcome: its grids' reports, checked into `ledger`.
struct CampaignRun {
  double wall_ms = 0.0;
  double verified = 0.0;
  std::vector<double> ratios;  ///< Per aggregate, for the determinism check.
  double ratio_sum = 0.0;
  double ratio_count = 0.0;
};

/// Runs the grids back to back at kThreads and checks every report. False
/// (after printing why) when run_campaign fails.
bool run_one_campaign(const core::SolverRegistry& registry,
                      const std::vector<engine::CampaignGrid>& grids,
                      Ledger& ledger, CampaignRun* out) {
  for (const engine::CampaignGrid& grid : grids) {
    std::string error;
    const Clock::time_point t0 = Clock::now();
    const std::optional<engine::CampaignReport> report =
        engine::run_campaign(registry, grid, campaign_options(), &error);
    out->wall_ms += ms_between(t0, Clock::now());
    if (!report.has_value()) {
      std::cerr << "perfbench: run_campaign failed: " << error << "\n";
      return false;
    }
    out->verified += check_campaign(*report, ledger, &out->ratios,
                                    &out->ratio_sum, &out->ratio_count);
  }
  return true;
}

/// ratio_mean is taken over this many campaigns, each on its own seed; a
/// run holds at least this many whatever --seconds says, so the figure is
/// a function of --seed alone.
constexpr std::size_t kRatioCampaigns = 4;

int timed_run(const RunArgs& args) {
  EndToEnd e2e;
  std::vector<double> setup_samples;
  probe_setup(args.smoke ? 3 : kSetupProbesFirst, &setup_samples);
  const core::SolverRegistry& registry = engine::shared_registry();

  Ledger ledger;
  std::vector<double> wall_ms;
  std::vector<double> cells_per_s;
  std::vector<double> rss_mb;
  std::vector<double> first_ratios;
  double ratio_sum = 0.0;
  double ratio_count = 0.0;
  const Clock::time_point start = Clock::now();
  while (wall_ms.size() < kRatioCampaigns ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             args.seconds) {
    const std::vector<engine::CampaignGrid> grids =
        grids_of(args, campaign_seed(args.seed, wall_ms.size()));
    CampaignRun run;
    const bool rss_reset = reset_peak_rss();
    if (!run_one_campaign(registry, grids, ledger, &run)) return 1;
    if (wall_ms.empty()) first_ratios = run.ratios;
    if (wall_ms.size() < kRatioCampaigns) {
      ratio_sum += run.ratio_sum;
      ratio_count += run.ratio_count;
    }
    wall_ms.push_back(run.wall_ms);
    cells_per_s.push_back(run.verified / (run.wall_ms / 1e3));
    if (rss_reset) rss_mb.push_back(peak_rss_mb(static_cast<int>(::getpid())));
    probe_setup(args.smoke ? 1 : kSetupProbesBetween, &setup_samples);
  }
  // Determinism: the first campaign again, untimed, must aggregate to the
  // same figures.
  CampaignRun again;
  if (!run_one_campaign(registry, grids_of(args, campaign_seed(args.seed, 0)),
                        ledger, &again)) {
    return 1;
  }
  if (again.ratios != first_ratios) {
    ledger.fail("campaign aggregates differ between repetitions");
  }

  e2e.setup_s = median(setup_samples);
  double total_ms = 0.0;
  for (const double ms : wall_ms) total_ms += ms;
  // A campaign is the request here: its wall time is the latency a user
  // waits. No campaign carries a budget, so every one counts as short.
  e2e.latency_p50_ms = median(wall_ms);
  e2e.latency_p95_ms = percentile(wall_ms, 0.95);
  e2e.short_latency_mean_ms = mean(wall_ms);
  e2e.throughput_rps = static_cast<double>(wall_ms.size()) / (total_ms / 1e3);
  e2e.cells_per_s = median(cells_per_s);
  e2e.ratio_mean = ratio_count > 0.0 ? ratio_sum / ratio_count : 0.0;
  // Which large cells the workers hold at the same moment decides a
  // campaign's peak: the process's lifetime peak of a campaign-large run
  // ranged from 35 to 47 MiB over ten seeds. The figure is the median over
  // campaigns of the peak during each (the lifetime peak where the kernel
  // cannot reset it).
  e2e.peak_rss_mb = rss_mb.empty()
                        ? peak_rss_mb(static_cast<int>(::getpid()))
                        : median(rss_mb);

  std::cout << "# " << args.workload << " seed " << args.seed << ": "
            << wall_ms.size() << " campaigns (each on its own seed) of "
            << ledger.attempted() / static_cast<long long>(wall_ms.size() + 1)
            << " cells at " << kThreads << " threads, median wall "
            << e2e.latency_p50_ms << " ms\n";
  ledger.report();
  Metrics metrics;
  emit_end_to_end(metrics, e2e);
  metrics.print_result(ledger.failed() == 0, ledger.attempted(),
                       ledger.failed());
  return 0;
}

int traced_run(const RunArgs& args) {
  std::vector<double> setup_samples;
  probe_setup(1, &setup_samples);
  const core::SolverRegistry& registry = engine::shared_registry();
  const std::vector<engine::CampaignGrid> grids =
      grids_of(args, campaign_seed(args.seed, 0));
  const engine::CampaignOptions options = campaign_options();
  const core::RunContext base_ctx = engine::make_run_context(options.run);

  // Serial replay: the same cells run_campaign fans out, one after the
  // other, each layer in its own span. Request id = (point, trial).
  SpanLog log;
  Ledger ledger;
  engine::CampaignReport replayed;
  replayed.trials = grids.front().trials;
  double rows = 0.0;
  double timed_out_rows = 0.0;
  std::uint64_t id = 0;
  std::vector<std::pair<const engine::CampaignGrid*, engine::ScenarioSpec>>
      points;
  for (const engine::CampaignGrid& grid : grids) {
    for (engine::ScenarioSpec& spec : engine::expand_grid(grid)) {
      points.emplace_back(&grid, std::move(spec));
    }
  }
  const Clock::time_point replay_start = Clock::now();
  for (const auto& [grid, spec] : points) {
    std::vector<engine::RunReport> trials;
    for (int t = 0; t < grid->trials; ++t, ++id) {
      const std::int32_t root = log.begin(id, "replay.trial");
      engine::ScenarioSpec trial_spec = spec;
      trial_spec.seed = spec.seed + static_cast<std::uint64_t>(t);
      std::string error;
      std::int32_t s = log.begin(id, "gen.make_scenario", root);
      std::optional<core::ProblemInstance> inst =
          engine::make_scenario(trial_spec, &error);
      log.end(s);
      if (!inst.has_value()) {
        std::cerr << "perfbench: make_scenario failed: " << error << "\n";
        return 1;
      }
      s = log.begin(id, "core.selection", root);
      const std::vector<const core::Solver*> plan =
          registry.selection(*inst, engine::grid_solvers(*grid, spec.name),
                             base_ctx);
      log.end(s);
      engine::RunReport cell;
      cell.instance = std::move(*inst);
      for (const core::Solver* solver : plan) {
        TimedCell timed = run_timed_cell(registry, *solver, cell.instance,
                                         base_ctx.restarted());
        record_cell(log, id, root, *solver, timed);
        core::Solution sol = std::move(timed.sol);
        rows += 1.0;
        if (sol.timed_out) timed_out_rows += 1.0;
        if (sol.ok && !sol.feasible) {
          ledger.fail(spec.name + " " + solver->name + ": infeasible cell");
        }
        ledger.attempt();
        cell.solutions.push_back(std::move(sol));
      }
      s = log.begin(id, "engine.lower_bound", root);
      cell.lower_bound =
          engine::derive_lower_bound(cell.instance, cell.solutions, options.run);
      log.end(s);
      log.end(root);
      trials.push_back(std::move(cell));
    }
    engine::CampaignPoint point;
    point.spec = spec;
    const std::int32_t s = log.begin(id, "engine.aggregate");
    point.aggregates = engine::aggregate_cells(trials);
    log.end(s);
    replayed.points.push_back(std::move(point));
  }
  const double replay_us = us_between(replay_start, Clock::now());
  {
    const std::int32_t s = log.begin(id, "engine.render");
    std::ostringstream sink;
    engine::write_campaign_json(sink, replayed);
    log.end(s);
  }

  // Pool counters around one timed campaign at kThreads.
  const PoolCounters before = pool_counters();
  CampaignRun timed;
  if (!run_one_campaign(registry, grids, ledger, &timed)) return 1;
  const double wall_us = timed.wall_ms * 1e3;
  const PoolCounters after = pool_counters();

  LayerReport l;
  l.selection_us = log.per_span_us("core.selection");
  l.solve_us = log.per_span_us("core.solve");
  l.check_us = log.per_span_us("core.check");
  l.solve_by_solver = log.per_detail_us("core.solve");
  l.lower_bound_us = log.per_span_us("engine.lower_bound");
  l.aggregate_us = log.per_span_us("engine.aggregate");
  l.render_us = log.per_span_us("engine.render");
  l.make_scenario_us = log.per_span_us("gen.make_scenario");
  l.timed_out_share = rows > 0.0 ? timed_out_rows / rows : 0.0;
  l.pool_cells = after.cells - before.cells;
  l.pool_chunks = after.chunks - before.chunks;
  l.pool_steals = after.steals - before.steals;
  double cell_us = 0.0;
  for (const double us : l.solve_us) cell_us += us;
  for (const double us : l.check_us) cell_us += us;
  l.pool_efficiency = cell_us / (kThreads * wall_us);
  double covered_us = 0.0;
  for (const char* layer :
       {"gen.make_scenario", "core.selection", "core.solve",
        "core.check", "engine.lower_bound", "engine.aggregate"}) {
    for (const double us : log.per_span_us(layer)) covered_us += us;
  }
  l.coverage = covered_us / replay_us;
  l.spans = static_cast<double>(log.spans().size());

  const std::string trace_path = args.work_dir + "/trace-" + args.workload +
                                 "-seed" + std::to_string(args.seed) + ".jsonl";
  if (!log.write_jsonl(trace_path)) {
    std::cerr << "perfbench: cannot write " << trace_path << "\n";
    return 1;
  }
  std::cout << "# " << args.workload << " seed " << args.seed
            << ": serial replay " << replay_us / 1e6 << " s over " << rows
            << " cells; one campaign at " << kThreads << " threads "
            << wall_us / 1e6 << " s; " << log.spans().size() << " spans in "
            << trace_path << "\n";
  ledger.report();
  Metrics metrics;
  emit_layers(metrics, l, registry);
  metrics.print_result(ledger.failed() == 0, ledger.attempted(),
                       ledger.failed());
  return 0;
}

}  // namespace

bool is_campaign_workload(const std::string& name) {
  return name == "campaign-exact" || name == "campaign-large";
}

int run_campaign_workload(const RunArgs& args) {
  return args.trace ? traced_run(args) : timed_run(args);
}

}  // namespace perfbench
