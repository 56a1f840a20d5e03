#include "engine/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <ostream>

#include "core/lines.hpp"
#include "engine/parallel.hpp"
#include "report/table.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace abt::engine {

using core::ProblemInstance;

std::vector<ScenarioSpec> expand_grid(const CampaignGrid& grid) {
  const std::vector<int> ns = grid.ns.empty()
                                  ? std::vector<int>{grid.base.n}
                                  : grid.ns;
  const std::vector<int> gs = grid.gs.empty()
                                  ? std::vector<int>{grid.base.g}
                                  : grid.gs;
  const std::vector<double> slacks = grid.slacks.empty()
                                         ? std::vector<double>{grid.base.slack}
                                         : grid.slacks;
  const std::vector<double> horizons =
      grid.horizons.empty() ? std::vector<double>{grid.base.horizon}
                            : grid.horizons;
  std::vector<ScenarioSpec> points;
  points.reserve(grid.scenarios.size() * ns.size() * gs.size() *
                 slacks.size() * horizons.size());
  for (const std::string& scenario : grid.scenarios) {
    for (const int n : ns) {
      for (const int g : gs) {
        for (const double slack : slacks) {
          for (const double horizon : horizons) {
            ScenarioSpec spec = grid.base;
            spec.name = scenario;
            spec.n = n;
            spec.g = g;
            spec.slack = slack;
            spec.horizon = horizon;
            points.push_back(std::move(spec));
          }
        }
      }
    }
  }
  return points;
}

const std::vector<std::string>& grid_solvers(const CampaignGrid& grid,
                                             const std::string& scenario) {
  const auto it = grid.scenario_solvers.find(scenario);
  return it != grid.scenario_solvers.end() ? it->second : grid.solvers;
}

std::optional<CampaignGrid> parse_campaign(std::istream& in,
                                           std::string* error,
                                           const ScenarioSpec& base) {
  const std::string text = core::read_all(in);
  core::LineCursor lines(text);
  const auto fail = [&](const std::string& why) {
    lines.fail(error, why);
    return std::nullopt;
  };
  CampaignGrid grid;
  grid.base = base;
  core::Tokens tokens;
  std::string_view token;
  // Axis lines: one or more numbers, none below `floor`. A one-value
  // slack/horizon line is the historic scalar knob: a single-point axis
  // expands to exactly what the old base override did.
  const auto axis = [&](const std::string& directive, auto& values,
                        int floor) {
    while (tokens.next(token)) {
      auto& value = values.emplace_back();
      if (!core::parse_number(token, value)) {
        return "bad value for " + directive;
      }
      if (value < floor) {
        return directive + " must be >= " + std::to_string(floor);
      }
    }
    return values.empty() ? directive + " needs values" : std::string();
  };
  while (lines.next(tokens)) {
    tokens.next(token);
    const std::string directive(token);
    std::string why;
    if (directive == "scenario") {
      while (tokens.next(token)) grid.scenarios.emplace_back(token);
      if (grid.scenarios.empty()) why = "scenario needs at least one name";
    } else if (directive == "n" || directive == "g") {
      why = axis(directive, directive == "n" ? grid.ns : grid.gs, 1);
    } else if (directive == "slack" || directive == "horizon") {
      why = axis(directive,
                 directive == "slack" ? grid.slacks : grid.horizons, 0);
    } else if (directive == "solvers:") {
      why = "solvers: needs a scenario name";
    } else if (directive == "solvers" || directive.rfind("solvers:", 0) == 0) {
      auto& subset = directive == "solvers"
                         ? grid.solvers
                         : grid.scenario_solvers[directive.substr(8)];
      if (!subset.empty()) {
        why = "duplicate directive '" + directive + "'";
      } else {
        while (tokens.next(token)) subset.emplace_back(token);
        if (subset.empty()) why = directive + " needs at least one solver name";
      }
    } else if (directive == "trials" || directive == "seed" ||
               directive == "eps") {
      // Scalar knobs shared by every grid point: exactly one number.
      const bool read =
          directive == "trials" ? tokens.number(grid.trials) && grid.trials >= 1
          : directive == "seed" ? tokens.number(grid.base.seed)
                                : tokens.number(grid.base.eps);
      if (!read || !tokens.done()) why = "bad value for " + directive;
    } else {
      why = "unknown directive '" + directive + "'";
    }
    if (!why.empty()) return fail(why);
  }
  if (grid.scenarios.empty()) {
    if (error != nullptr) *error = "campaign names no scenario";
    return std::nullopt;
  }
  for (const auto& [scenario, subset] : grid.scenario_solvers) {
    (void)subset;
    if (std::find(grid.scenarios.begin(), grid.scenarios.end(), scenario) ==
        grid.scenarios.end()) {
      if (error != nullptr) {
        *error = "solvers:" + scenario + " names no scenario in the grid";
      }
      return std::nullopt;
    }
  }
  return grid;
}

const std::vector<CampaignPresetInfo>& campaign_presets() {
  static const std::vector<CampaignPresetInfo> kPresets = {
      {"smoke", "interval+flexible x n {8,12}, g 3 — tiny CI grid"},
      {"families",
       "interval+flexible+bursty+weighted x n {12,24}, g {3} — one point "
       "per random family at two sizes"},
      {"exact-frontier",
       "weighted+weighted-flexible x n {12,16,20,24}, g 3, horizon {12,18} "
       "— per-scenario solver subsets pit busy/weighted-exact against the "
       "approximation baselines; pair with --budget-ms to chart incumbent "
       "quality past the measured gate"},
  };
  return kPresets;
}

std::optional<CampaignGrid> campaign_preset(std::string_view name) {
  CampaignGrid grid;
  if (name == "smoke") {
    grid.scenarios = {"interval", "flexible"};
    grid.ns = {8, 12};
    grid.gs = {3};
    return grid;
  }
  if (name == "families") {
    grid.scenarios = {"interval", "flexible", "bursty", "weighted"};
    grid.ns = {12, 24};
    grid.gs = {3};
    return grid;
  }
  if (name == "exact-frontier") {
    grid.scenarios = {"weighted", "weighted-flexible"};
    grid.ns = {12, 16, 20, 24};
    grid.gs = {3};
    // Two horizons: the derived-density default neighbourhood, tight and
    // loose, so the exact oracle's frontier shows up at both regimes.
    grid.horizons = {12.0, 18.0};
    // The frontier race: the exact oracle against its approximation
    // baselines on interval jobs; the flexible points can only run the
    // freeze pipeline (the interval algorithms decline windowed jobs).
    grid.solvers = {"busy/weighted-exact", "busy/weighted-narrow-wide",
                    "busy/weighted-first-fit"};
    grid.scenario_solvers["weighted-flexible"] = {"busy/weighted-flexible"};
    return grid;
  }
  return std::nullopt;
}

namespace {

/// The solver names a point actually runs: the grid's (per-scenario or
/// grid-wide) subset when one was declared, else the campaign-wide
/// RunOptions::solvers (empty = every applicable solver).
const std::vector<std::string>& point_solver_names(
    const CampaignGrid& grid, const CampaignOptions& options,
    const std::string& scenario) {
  const std::vector<std::string>& subset = grid_solvers(grid, scenario);
  return subset.empty() ? options.run.solvers : subset;
}

/// Runs every (point, trial) cell as a portfolio race over one shared
/// pool. Races nested inside pool workers execute their contestants
/// inline (PR 7 nesting rule), so cross-cell parallelism comes from the
/// campaign fan-out and each race still terminates early on first
/// acceptance.
CampaignReport run_campaign_races(
    const core::SolverRegistry& registry, const CampaignGrid& grid,
    CampaignReport report, const CampaignOptions& options,
    const core::RunContext& base_ctx, const std::vector<ScenarioSpec>& specs,
    std::vector<std::vector<ProblemInstance>> instances) {
  report.raced = true;
  const std::size_t points = specs.size();

  // Resolve every cell's contestant list up front — auto picks depend on
  // the instance, explicit lists are shared verbatim. Explicit race
  // entries win over a grid solver subset, which wins over the auto pick.
  std::vector<std::vector<std::vector<RaceEntry>>> entries(points);
  for (std::size_t p = 0; p < points; ++p) {
    std::vector<RaceEntry> subset_entries;
    if (options.race.entries.empty()) {
      for (const std::string& name :
           point_solver_names(grid, options, specs[p].name)) {
        subset_entries.push_back({name, 0.0});
      }
    }
    entries[p].reserve(instances[p].size());
    for (const ProblemInstance& inst : instances[p]) {
      if (!options.race.entries.empty()) {
        entries[p].push_back(options.race.entries);
      } else if (!subset_entries.empty()) {
        entries[p].push_back(subset_entries);
      } else {
        entries[p].push_back(auto_entries(registry, inst, base_ctx));
      }
    }
  }

  struct RaceCell {
    std::size_t point;
    std::size_t trial;
  };
  std::vector<RaceCell> cells;
  std::vector<std::vector<RaceReport>> race_out(points);
  for (std::size_t p = 0; p < points; ++p) {
    race_out[p].resize(instances[p].size());
    for (std::size_t t = 0; t < instances[p].size(); ++t) {
      cells.push_back({p, t});
    }
  }

  RaceOptions race_options;
  // The campaign already fans its race CELLS out over the pool; each
  // cell's race runs inline in its worker (nested parallel_for is serial
  // anyway), so pin threads = 1 rather than letting 0 resolve to the
  // whole pool when the campaign itself runs serially.
  race_options.threads = 1;
  race_options.accept_gap = options.race.accept_gap;
  race_options.span_bound_max_jobs = options.run.span_bound_max_jobs;

  ParallelOptions parallel_options;
  parallel_options.cancel = options.run.cancel;
  parallel_options.on_cancelled = [&](std::size_t i) {
    const auto [p, t] = cells[i];
    RaceReport& race_report = race_out[p][t];
    race_report.entries = entries[p][t];
    race_report.rows.reserve(entries[p][t].size());
    for (const RaceEntry& entry : entries[p][t]) {
      const core::Solver* solver = registry.find(entry.solver);
      if (solver != nullptr) {
        race_report.rows.push_back(
            cancelled_cell_row(*solver, base_ctx.budget_ms()));
      } else {
        core::Solution refusal;
        refusal.solver = entry.solver;
        refusal.family = instances[p][t].family;
        refusal.message = "unknown solver";
        race_report.rows.push_back(std::move(refusal));
      }
    }
  };
  parallel_for(
      report.threads, cells.size(),
      [&](std::size_t i) {
        const auto [p, t] = cells[i];
        race_out[p][t] = race(registry, instances[p][t], entries[p][t],
                              base_ctx.restarted(), race_options);
      },
      parallel_options);

  report.points.reserve(points);
  for (std::size_t p = 0; p < points; ++p) {
    CampaignPoint point;
    point.spec = specs[p];
    point.solvers = point_solver_names(grid, options, specs[p].name);
    std::vector<RunReport> trial_reports;
    trial_reports.reserve(instances[p].size());
    for (std::size_t t = 0; t < instances[p].size(); ++t) {
      RaceReport& race_report = race_out[p][t];
      point.races += 1;
      if (race_report.winner >= 0) {
        const std::string& name =
            race_report.rows[static_cast<std::size_t>(race_report.winner)]
                .solver;
        auto it = std::find_if(point.race_wins.begin(), point.race_wins.end(),
                               [&](const auto& w) { return w.first == name; });
        if (it == point.race_wins.end()) {
          point.race_wins.emplace_back(name, 1);
        } else {
          it->second += 1;
        }
      } else {
        point.races_unwon += 1;
      }
      RunReport cell;
      cell.instance = std::move(instances[p][t]);
      cell.solutions = std::move(race_report.rows);
      cell.lower_bound =
          derive_lower_bound(cell.instance, cell.solutions, options.run);
      for (const core::Solution& sol : cell.solutions) {
        point.cells += 1;
        if (sol.ok) point.ok_cells += 1;
        if (sol.ok && !sol.feasible) point.infeasible_cells += 1;
      }
      trial_reports.push_back(std::move(cell));
    }
    point.aggregates = aggregate_cells(trial_reports);
    report.points.push_back(std::move(point));
  }
  return report;
}

/// Hands the memory the campaign's cells freed back to the system. glibc
/// keeps freed chunks in each worker thread's malloc arena, and how many of
/// them stay resident depends on allocation order, so a process running
/// campaign after campaign grows with their number: 36 -> 47 MiB from 50 to
/// 300 campaigns of five n = 2048 scenarios at 4 threads. Trimming costs
/// about 2.5 ms per such campaign. No-op on other C libraries.
void release_freed_memory() {
#if defined(__GLIBC__)
  (void)malloc_trim(0);
#endif
}

}  // namespace

std::optional<CampaignReport> run_campaign(
    const core::SolverRegistry& registry, const CampaignGrid& grid,
    const CampaignOptions& options, std::string* error) {
  CampaignReport report;
  report.trials = std::max(1, grid.trials > 0 ? grid.trials : options.trials);
  report.threads = resolve_threads(options.threads);
  report.budget_ms = options.run.budget_ms;
  const auto t0 = std::chrono::steady_clock::now();
  const core::RunContext base_ctx = make_run_context(options.run);

  const std::vector<ScenarioSpec> specs = expand_grid(grid);
  if (specs.empty()) {
    if (error != nullptr) *error = "campaign grid is empty";
    return std::nullopt;
  }

  // Generate every point's trial instances and solver plans up front,
  // sequentially, so a bad grid fails before any cell runs and the cell
  // fan-out below is pure solver work. Not free: one campaign-exact
  // campaign (6144 cells, 4-CPU host) spends ~17 ms here, most of it in
  // the feasibility tests that admit slotted jobs, against ~320 ms for the
  // whole campaign.
  const std::size_t points = specs.size();
  std::vector<std::vector<ProblemInstance>> instances(points);
  std::vector<std::vector<std::vector<const core::Solver*>>> plans(points);
  for (std::size_t p = 0; p < points; ++p) {
    for (int t = 0; t < report.trials; ++t) {
      ScenarioSpec spec = specs[p];
      spec.seed = specs[p].seed + static_cast<std::uint64_t>(t);
      std::string why;
      auto inst = make_scenario(spec, &why);
      if (!inst.has_value()) {
        if (error != nullptr) {
          *error = "point " + specs[p].name + " n=" +
                   std::to_string(specs[p].n) + " g=" +
                   std::to_string(specs[p].g) + ": " + why;
        }
        return std::nullopt;
      }
      if (!options.race.enabled) {
        plans[p].push_back(registry.selection(
            *inst, point_solver_names(grid, options, specs[p].name),
            base_ctx));
      }
      instances[p].push_back(std::move(*inst));
    }
  }

  if (options.race.enabled) {
    report = run_campaign_races(registry, grid, std::move(report), options,
                                base_ctx, specs, std::move(instances));
    release_freed_memory();
    report.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return report;
  }

  // One flat cell list across ALL points — the whole campaign shares one
  // pool, so a short point's workers immediately pick up the next point's
  // cells instead of idling at a per-point barrier.
  struct Cell {
    std::size_t point;
    std::size_t trial;
    std::size_t slot;
  };
  std::vector<Cell> cells;
  std::vector<std::vector<std::vector<core::Solution>>> grid_out(points);
  for (std::size_t p = 0; p < points; ++p) {
    grid_out[p].resize(static_cast<std::size_t>(report.trials));
    for (std::size_t t = 0; t < grid_out[p].size(); ++t) {
      grid_out[p][t].resize(plans[p][t].size());
      for (std::size_t s = 0; s < plans[p][t].size(); ++s) {
        cells.push_back({p, t, s});
      }
    }
  }
  // Cancellation drains at the scheduler: remaining cells are stamped with
  // the registry's decline row in O(cells) memory writes, so a cancelled
  // campaign stops after only the in-flight cells finish.
  ParallelOptions parallel_options;
  parallel_options.cancel = options.run.cancel;
  parallel_options.on_cancelled = [&](std::size_t i) {
    const auto [p, t, s] = cells[i];
    grid_out[p][t][s] =
        cancelled_cell_row(*plans[p][t][s], base_ctx.budget_ms());
  };
  parallel_for(
      report.threads, cells.size(),
      [&](std::size_t i) {
        const auto [p, t, s] = cells[i];
        grid_out[p][t][s] = registry.run(*plans[p][t][s], instances[p][t],
                                         base_ctx.restarted());
      },
      parallel_options);

  // Assemble per-point reports: refusal rows for unknown solver names,
  // per-trial lower bounds, then the shared sweep aggregation.
  report.points.reserve(points);
  for (std::size_t p = 0; p < points; ++p) {
    CampaignPoint point;
    point.spec = specs[p];
    point.solvers = point_solver_names(grid, options, specs[p].name);
    std::vector<RunReport> trial_reports;
    trial_reports.reserve(static_cast<std::size_t>(report.trials));
    for (std::size_t t = 0; t < instances[p].size(); ++t) {
      RunReport cell;
      cell.instance = std::move(instances[p][t]);
      cell.solutions = std::move(grid_out[p][t]);
      append_unknown_solver_rows(registry, point.solvers, cell);
      cell.lower_bound =
          derive_lower_bound(cell.instance, cell.solutions, options.run);
      for (const core::Solution& sol : cell.solutions) {
        point.cells += 1;
        if (sol.ok) point.ok_cells += 1;
        if (sol.ok && !sol.feasible) point.infeasible_cells += 1;
      }
      trial_reports.push_back(std::move(cell));
    }
    point.aggregates = aggregate_cells(trial_reports);
    report.points.push_back(std::move(point));
  }
  release_freed_memory();

  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return report;
}

void print_campaign(std::ostream& os, const CampaignReport& report) {
  os << "campaign: " << report.points.size() << " grid points x "
     << report.trials << " trials, " << report.threads << " thread"
     << (report.threads == 1 ? "" : "s") << " (shared pool), "
     << report::Table::num(report.wall_ms) << " ms total";
  if (report.budget_ms > 0.0) {
    os << ", budget " << report::Table::num(report.budget_ms) << " ms/cell";
  }
  if (report.raced) os << ", portfolio race per cell";
  os << "\n\n";
  report::Table table({"scenario", "n", "g", "solver", "runs", "ok",
                       "feasible", "exact", "t/o", "ratio med", "ms med"});
  for (const CampaignPoint& point : report.points) {
    for (const SolverAggregate& agg : point.aggregates) {
      table.add_row(
          {point.spec.name, std::to_string(point.spec.n),
           std::to_string(point.spec.g), agg.solver,
           std::to_string(agg.runs), std::to_string(agg.ok),
           std::to_string(agg.feasible), std::to_string(agg.exact_runs),
           std::to_string(agg.timed_out),
           agg.ratio_count > 0 ? report::Table::num(agg.ratio_median) : "-",
           agg.feasible > 0 ? report::Table::num(agg.wall_median_ms) : "-"});
    }
  }
  table.print(os);
  if (!report.raced) return;

  os << "\n";
  report::Table wins({"scenario", "n", "g", "races", "winner", "wins"});
  for (const CampaignPoint& point : report.points) {
    for (const auto& [solver, count] : point.race_wins) {
      wins.add_row({point.spec.name, std::to_string(point.spec.n),
                    std::to_string(point.spec.g),
                    std::to_string(point.races), solver,
                    std::to_string(count)});
    }
    if (point.races_unwon > 0) {
      wins.add_row({point.spec.name, std::to_string(point.spec.n),
                    std::to_string(point.spec.g),
                    std::to_string(point.races), "(no winner)",
                    std::to_string(point.races_unwon)});
    }
  }
  wins.print(os);
}

void write_campaign_csv(std::ostream& os, const CampaignReport& report) {
  report::Table table({"scenario", "n", "g", "seed", "slack", "horizon",
                       "solver", "runs", "ok", "feasible", "exact",
                       "declined", "timed_out", "ratio_mean", "ratio_median",
                       "ratio_p95", "ratio_max", "wall_median_ms",
                       "wall_total_ms"});
  for (const CampaignPoint& point : report.points) {
    for (const SolverAggregate& agg : point.aggregates) {
      const bool has_ratio = agg.ratio_count > 0;
      table.add_row(
          {point.spec.name, std::to_string(point.spec.n),
           std::to_string(point.spec.g), std::to_string(point.spec.seed),
           report::Table::num(point.spec.slack, 6),
           report::Table::num(point.spec.horizon, 6),
           agg.solver, std::to_string(agg.runs), std::to_string(agg.ok),
           std::to_string(agg.feasible), std::to_string(agg.exact_runs),
           std::to_string(agg.declined), std::to_string(agg.timed_out),
           has_ratio ? report::Table::num(agg.ratio_mean, 6) : "",
           has_ratio ? report::Table::num(agg.ratio_median, 6) : "",
           has_ratio ? report::Table::num(agg.ratio_p95, 6) : "",
           has_ratio ? report::Table::num(agg.ratio_max, 6) : "",
           agg.feasible > 0 ? report::Table::num(agg.wall_median_ms, 6) : "",
           report::Table::num(agg.wall_total_ms, 6)});
    }
  }
  table.write_csv(os);
}

void write_campaign_json(std::ostream& os, const CampaignReport& report) {
  const std::streamsize old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\n  \"campaign\": {\"points\": " << report.points.size()
     << ", \"trials\": " << report.trials
     << ", \"threads\": " << report.threads
     << ", \"raced\": " << (report.raced ? "true" : "false")
     << ", \"budget_ms\": " << report.budget_ms
     << ", \"wall_ms\": " << report.wall_ms << "},\n  \"points\": [";
  for (std::size_t p = 0; p < report.points.size(); ++p) {
    const CampaignPoint& point = report.points[p];
    os << (p == 0 ? "\n" : ",\n") << "    {\"scenario\": ";
    write_json_string(os, point.spec.name);
    os << ", \"n\": " << point.spec.n << ", \"g\": " << point.spec.g
       << ", \"seed\": " << point.spec.seed
       << ", \"slack\": " << point.spec.slack
       << ", \"horizon\": " << point.spec.horizon
       << ", \"cells\": " << point.cells
       << ", \"ok_cells\": " << point.ok_cells
       << ", \"infeasible_cells\": " << point.infeasible_cells;
    if (!point.solvers.empty()) {
      os << ",\n     \"solvers\": [";
      for (std::size_t i = 0; i < point.solvers.size(); ++i) {
        os << (i == 0 ? "" : ", ");
        write_json_string(os, point.solvers[i]);
      }
      os << "]";
    }
    if (report.raced) {
      os << ",\n     \"race\": {\"races\": " << point.races
         << ", \"unwon\": " << point.races_unwon << ", \"wins\": {";
      for (std::size_t i = 0; i < point.race_wins.size(); ++i) {
        os << (i == 0 ? "" : ", ");
        write_json_string(os, point.race_wins[i].first);
        os << ": " << point.race_wins[i].second;
      }
      os << "}}";
    }
    os << ",\n     \"aggregates\": [";
    for (std::size_t i = 0; i < point.aggregates.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n") << "      ";
      write_aggregate_json(os, point.aggregates[i]);
    }
    os << "\n     ]}";
  }
  os << "\n  ]\n}\n";
  os.precision(old_precision);
}

}  // namespace abt::engine
