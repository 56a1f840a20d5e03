#include "busy/weighted.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <tuple>

#include "busy/dp_unbounded.hpp"
#include "core/assert.hpp"
#include "core/sweep.hpp"

namespace abt::busy {

using core::BusySchedule;
using core::ContinuousJob;
using core::Interval;
using core::JobId;

WeightedInstance::WeightedInstance(std::vector<WeightedJob> jobs, int capacity)
    : jobs_(std::move(jobs)), capacity_(capacity) {
  ABT_ASSERT(capacity_ >= 1, "capacity must be positive");
}

double WeightedInstance::mass_lower_bound() const {
  double total = 0.0;
  for (const WeightedJob& wj : jobs_) total += wj.width * wj.job.length;
  return total / capacity_;
}

double WeightedInstance::span_lower_bound() const {
  std::vector<Interval> runs;
  runs.reserve(jobs_.size());
  for (const WeightedJob& wj : jobs_) {
    runs.push_back({wj.job.release, wj.job.release + wj.job.length});
  }
  return core::span_of(runs);
}

bool WeightedInstance::all_interval_jobs(double eps) const {
  for (const WeightedJob& wj : jobs_) {
    if (!wj.job.is_interval_job(eps)) return false;
  }
  return true;
}

bool WeightedInstance::structurally_valid(std::string* why) const {
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const WeightedJob& wj = jobs_[i];
    auto fail = [&](const char* reason) {
      if (why != nullptr) *why = "job " + std::to_string(i) + ": " + reason;
      return false;
    };
    if (!wj.job.window_fits()) return fail("window shorter than length");
    if (wj.width < 1) return fail("width must be >= 1");
    if (wj.width > capacity_) return fail("width exceeds capacity g");
  }
  return true;
}

core::ContinuousInstance WeightedInstance::unweighted() const {
  std::vector<ContinuousJob> jobs;
  jobs.reserve(jobs_.size());
  for (const WeightedJob& wj : jobs_) jobs.push_back(wj.job);
  return core::ContinuousInstance(std::move(jobs), capacity_);
}

namespace {

/// Peak cumulative width of half-open runs (runs[i] carries widths[i]):
/// every run's start probed against every run. O(k^2), which only the
/// exact search's gated, handful-of-jobs machines pay.
int peak_width(std::span<const Interval> runs, std::span<const int> widths) {
  int best = 0;
  for (const Interval& probe : runs) {
    int at = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (runs[i].lo <= probe.lo && probe.lo < runs[i].hi) at += widths[i];
    }
    best = std::max(best, at);
  }
  return best;
}

/// Width-aware first fit over `ids` in non-increasing length order; `cap`
/// is the machine budget (g for the full model, 1 with unit widths for the
/// wide lane). Each machine is an OccupancyIndex weighted by width, so a
/// candidate fits iff its run's peak load plus its own width stays within
/// `cap` — O(log k) per probe. Places jobs on machines `machine_base`
/// onwards and returns how many machines it opened.
int first_fit_into(const WeightedInstance& inst, std::vector<JobId> ids,
                   int cap, bool unit_widths, int machine_base,
                   BusySchedule& sched) {
  std::stable_sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
    return inst.job(a).job.length > inst.job(b).job.length;
  });
  std::vector<core::OccupancyIndex> machines;
  for (JobId j : ids) {
    const WeightedJob& wj = inst.job(j);
    const Interval run{wj.job.release, wj.job.release + wj.job.length};
    const int width = unit_widths ? 1 : wj.width;
    ABT_ASSERT(width <= cap, "job wider than the machine capacity");
    std::size_t m = 0;
    while (m < machines.size() &&
           machines[m].max_coverage_in(run.lo, run.hi) + width > cap) {
      ++m;
    }
    if (m == machines.size()) machines.emplace_back();
    machines[m].insert(run, width);
    sched.placements[static_cast<std::size_t>(j)] = {
        machine_base + static_cast<int>(m), wj.job.release};
  }
  return static_cast<int>(machines.size());
}

}  // namespace

bool check_weighted_schedule(const WeightedInstance& inst,
                             const BusySchedule& sched, std::string* why,
                             double eps) {
  auto fail = [&](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return false;
  };
  if (static_cast<int>(sched.placements.size()) != inst.size()) {
    return fail("placement count mismatch");
  }
  // Width events (machine, coordinate, delta) of every machine in one
  // array. Runs are shrunk by eps at the end; a run left empty covers no
  // point, so it adds no events.
  std::vector<std::tuple<int, double, int>> events;
  events.reserve(2 * sched.placements.size());
  for (JobId j = 0; j < inst.size(); ++j) {
    const auto& p = sched.placements[static_cast<std::size_t>(j)];
    const ContinuousJob& job = inst.job(j).job;
    if (p.machine < 0) return fail("job " + std::to_string(j) + " unassigned");
    if (p.start < job.release - eps || p.start > job.latest_start() + eps) {
      return fail("job " + std::to_string(j) + " start outside window");
    }
    const double hi = p.start + job.length - eps;
    if (!(p.start < hi)) continue;
    events.emplace_back(p.machine, p.start, inst.job(j).width);
    events.emplace_back(p.machine, hi, -inst.job(j).width);
  }
  // Machine-major sweep; at equal coordinates ends (negative deltas) sort
  // first, because half-open runs that merely touch never overlap.
  std::sort(events.begin(), events.end());
  int load = 0;
  for (const auto& [machine, at, delta] : events) {
    load += delta;
    if (load > inst.capacity()) {
      return fail("machine " + std::to_string(machine) +
                  " exceeds width capacity");
    }
  }
  return true;
}

BusySchedule weighted_first_fit(const WeightedInstance& inst) {
  ABT_ASSERT(inst.all_interval_jobs(1e-6),
             "weighted FIRSTFIT expects interval jobs");
  BusySchedule sched;
  sched.placements.assign(static_cast<std::size_t>(inst.size()), {});
  std::vector<JobId> all(static_cast<std::size_t>(inst.size()));
  std::iota(all.begin(), all.end(), JobId{0});
  first_fit_into(inst, std::move(all), inst.capacity(), /*unit_widths=*/false,
                 /*machine_base=*/0, sched);
  return sched;
}

BusySchedule narrow_wide_split(const WeightedInstance& inst) {
  ABT_ASSERT(inst.all_interval_jobs(1e-6),
             "narrow/wide split expects interval jobs");
  BusySchedule sched;
  sched.placements.assign(static_cast<std::size_t>(inst.size()), {});

  std::vector<JobId> narrow;
  std::vector<JobId> wide;
  for (JobId j = 0; j < inst.size(); ++j) {
    (2 * inst.job(j).width > inst.capacity() ? wide : narrow).push_back(j);
  }
  // Wide jobs: at most one can share capacity with another wide job, so
  // pack them as a unit-capacity FIRSTFIT (disjoint wide jobs share a
  // machine).
  const int wide_machines =
      first_fit_into(inst, std::move(wide), /*cap=*/1, /*unit_widths=*/true,
                     /*machine_base=*/0, sched);
  // Narrow jobs: width-aware FIRSTFIT on fresh machines.
  first_fit_into(inst, std::move(narrow), inst.capacity(),
                 /*unit_widths=*/false, /*machine_base=*/wide_machines, sched);
  return sched;
}

std::optional<WeightedExactResult> solve_exact_weighted_anytime(
    const WeightedInstance& inst, WeightedExactOptions options) {
  if (inst.size() > options.max_jobs) return std::nullopt;
  ABT_ASSERT(inst.all_interval_jobs(1e-6), "exact expects interval jobs");

  std::vector<JobId> order(static_cast<std::size_t>(inst.size()));
  std::iota(order.begin(), order.end(), JobId{0});
  std::stable_sort(order.begin(), order.end(), [&](JobId a, JobId b) {
    return inst.job(a).job.length > inst.job(b).job.length;
  });

  std::vector<int> assignment(static_cast<std::size_t>(inst.size()), -1);
  std::vector<int> best_assignment = assignment;
  double best_cost = std::numeric_limits<double>::infinity();
  const core::RunContext* context = options.context;
  long nodes = 0;
  bool stopped = false;

  // Each machine's runs, pushed on assign and popped on unassign (the
  // search is depth-first, so a machine's runs form a stack); `span`
  // caches span_of(runs). peak_width sums integers and span_of sorts a
  // copy, so both answer exactly what a rescan of the assignment would.
  struct MachineRuns {
    std::vector<Interval> runs;
    std::vector<int> widths;
    double span = 0.0;
  };
  std::vector<MachineRuns> machines(static_cast<std::size_t>(inst.size()));

  std::function<void(std::size_t, int, double)> dfs = [&](std::size_t index,
                                                          int used,
                                                          double cost) {
    if (stopped) return;
    // Context poll on a node counter, only once an incumbent exists — the
    // first depth-first descent always completes, so even an
    // instantly-expired budget yields a feasible schedule.
    if ((++nodes & 1023) == 0 && context != nullptr &&
        best_cost < std::numeric_limits<double>::infinity() &&
        context->should_stop()) {
      stopped = true;
      return;
    }
    if (cost >= best_cost - 1e-12) return;
    if (index == order.size()) {
      best_cost = cost;
      best_assignment = assignment;
      if (context != nullptr) {
        // Snapshot render is lazy: the partition string is only built when
        // a schedule ring is attached (service `progress` events).
        context->report_incumbent(best_cost, [&] {
          return core::render_partition("machine", best_assignment);
        });
      }
      return;
    }
    const JobId j = order[index];
    const Interval run{inst.job(j).job.release,
                       inst.job(j).job.release + inst.job(j).job.length};
    const int width = inst.job(j).width;
    for (int m = 0; m <= used; ++m) {
      MachineRuns& mr = machines[static_cast<std::size_t>(m)];
      mr.runs.push_back(run);
      mr.widths.push_back(width);
      if (peak_width(mr.runs, mr.widths) <= inst.capacity()) {
        const double before = mr.span;
        mr.span = core::span_of(mr.runs);
        assignment[static_cast<std::size_t>(j)] = m;
        dfs(index + 1, std::max(used, m + 1), cost - before + mr.span);
        assignment[static_cast<std::size_t>(j)] = -1;
        mr.span = before;
      }
      mr.runs.pop_back();
      mr.widths.pop_back();
    }
  };
  dfs(0, 0, 0.0);

  WeightedExactResult result;
  result.proven_optimal = !stopped;
  result.nodes = nodes;
  result.schedule.placements.assign(static_cast<std::size_t>(inst.size()), {});
  for (JobId j = 0; j < inst.size(); ++j) {
    result.schedule.placements[static_cast<std::size_t>(j)] = {
        best_assignment[static_cast<std::size_t>(j)], inst.job(j).job.release};
  }
  return result;
}

std::optional<BusySchedule> solve_exact_weighted(const WeightedInstance& inst,
                                                 WeightedExactOptions options) {
  auto result = solve_exact_weighted_anytime(inst, options);
  if (!result.has_value()) return std::nullopt;
  return std::move(result->schedule);
}

BusySchedule schedule_weighted_flexible(const WeightedInstance& inst) {
  const UnboundedSolution dp = solve_unbounded(inst.unweighted());
  std::vector<WeightedJob> frozen;
  frozen.reserve(static_cast<std::size_t>(inst.size()));
  for (JobId j = 0; j < inst.size(); ++j) {
    const double s = dp.starts[static_cast<std::size_t>(j)];
    frozen.push_back(
        {{s, s + inst.job(j).job.length, inst.job(j).job.length},
         inst.job(j).width});
  }
  const WeightedInstance frozen_inst(std::move(frozen), inst.capacity());
  BusySchedule sched = narrow_wide_split(frozen_inst);
  // Report starts of the original (flexible) jobs.
  for (JobId j = 0; j < inst.size(); ++j) {
    sched.placements[static_cast<std::size_t>(j)].start =
        dp.starts[static_cast<std::size_t>(j)];
  }
  return sched;
}

}  // namespace abt::busy
