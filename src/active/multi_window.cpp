#include "active/multi_window.hpp"

#include <algorithm>
#include <cstdint>

#include "core/assert.hpp"
#include "flow/dinic.hpp"

namespace abt::active {

using core::ActiveSchedule;
using core::JobId;
using core::SlotTime;

MultiWindowInstance::MultiWindowInstance(std::vector<MultiWindowJob> jobs,
                                         int capacity)
    : jobs_(std::move(jobs)), capacity_(capacity) {
  ABT_ASSERT(capacity_ >= 1, "capacity must be positive");
  for (const MultiWindowJob& job : jobs_) {
    // Summed modulo 2^64, never with signed overflow: structurally_valid
    // rejects every instance whose total work does not fit.
    total_work_ = static_cast<core::SlotTime>(
        static_cast<std::uint64_t>(total_work_) +
        static_cast<std::uint64_t>(job.length));
    for (const auto& [r, d] : job.windows) {
      horizon_ = std::max(horizon_, d);
    }
  }
}

bool MultiWindowInstance::structurally_valid(std::string* why) const {
  SlotTime work = 0;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const MultiWindowJob& job = jobs_[i];
    auto fail = [&](const char* reason) {
      if (why != nullptr) *why = "job " + std::to_string(i) + ": " + reason;
      return false;
    };
    if (job.length < 1) return fail("length must be >= 1");
    if (job.windows.empty()) return fail("no windows");
    SlotTime prev_end = -1;
    for (const auto& [r, d] : job.windows) {
      if (r < 0) return fail("negative release");
      if (d <= r) return fail("empty window");
      if (r < prev_end) return fail("windows overlap or unsorted");
      prev_end = d;
    }
    // Sorted disjoint windows in [0, max]: their slot count cannot overflow.
    if (job.window_slots() < job.length) return fail("windows too small");
    if (__builtin_add_overflow(work, job.length, &work)) {
      return fail("total work overflows");
    }
  }
  return true;
}

std::vector<SlotTime> mw_candidate_slots(const MultiWindowInstance& inst) {
  std::vector<char> live(static_cast<std::size_t>(inst.horizon()) + 1, 0);
  for (const MultiWindowJob& job : inst.jobs()) {
    for (const auto& [r, d] : job.windows) {
      for (SlotTime t = r + 1; t <= d; ++t) {
        live[static_cast<std::size_t>(t)] = 1;
      }
    }
  }
  std::vector<SlotTime> out;
  for (SlotTime t = 1; t <= inst.horizon(); ++t) {
    if (live[static_cast<std::size_t>(t)] != 0) out.push_back(t);
  }
  return out;
}

namespace {

/// Deficit (total work minus max flow) of the Fig 2-style network over the
/// given slots. `should_stop` is forwarded into the max-flow; when it trips
/// the returned deficit is meaningless (`*cancelled` is set) and no
/// assignment is extracted.
flow::Dinic::Cap mw_flow_deficit(
    const MultiWindowInstance& inst, const std::vector<SlotTime>& slots,
    std::vector<std::vector<SlotTime>>* assignment_out,
    const std::function<bool()>& should_stop = {},
    bool* cancelled = nullptr) {
  if (cancelled != nullptr) *cancelled = false;
  const int num_jobs = inst.size();
  const int num_slots = static_cast<int>(slots.size());
  const int source = 0;
  const int sink = 1 + num_jobs + num_slots;
  flow::Dinic dinic(sink + 1);

  struct JobSlotEdge {
    JobId job;
    SlotTime slot;
    flow::Dinic::EdgeRef edge;
  };
  std::vector<JobSlotEdge> edges;

  flow::Dinic::Cap total_work = 0;
  for (JobId j = 0; j < num_jobs; ++j) {
    const MultiWindowJob& job = inst.job(j);
    dinic.add_edge(source, 1 + j, job.length);
    total_work += job.length;
    for (const auto& [r, d] : job.windows) {
      const auto lo = std::lower_bound(slots.begin(), slots.end(), r + 1);
      for (auto it = lo; it != slots.end() && *it <= d; ++it) {
        const int slot_node =
            1 + num_jobs + static_cast<int>(it - slots.begin());
        const auto edge = dinic.add_edge(1 + j, slot_node, 1);
        if (assignment_out != nullptr) edges.push_back({j, *it, edge});
      }
    }
  }
  for (int s = 0; s < num_slots; ++s) {
    dinic.add_edge(1 + num_jobs + s, sink, inst.capacity());
  }
  flow::Dinic::Options flow_options;
  flow_options.should_stop = should_stop;
  bool flow_cancelled = false;
  const auto flow_value =
      dinic.max_flow(source, sink, flow_options, &flow_cancelled);
  if (flow_cancelled) {
    if (cancelled != nullptr) *cancelled = true;
    return total_work;  // deficit meaningless; caller must check the flag
  }
  if (assignment_out != nullptr && flow_value == total_work) {
    assignment_out->assign(static_cast<std::size_t>(num_jobs), {});
    for (const JobSlotEdge& e : edges) {
      if (dinic.flow_on(e.edge) > 0) {
        (*assignment_out)[static_cast<std::size_t>(e.job)].push_back(e.slot);
      }
    }
  }
  return total_work - flow_value;
}

}  // namespace

bool mw_is_feasible_with_slots(const MultiWindowInstance& inst,
                               const std::vector<SlotTime>& active_slots) {
  return mw_flow_deficit(inst, active_slots, nullptr) == 0;
}

FeasStatus mw_feasibility_with_slots(const MultiWindowInstance& inst,
                                     const std::vector<SlotTime>& active_slots,
                                     const std::function<bool()>& should_stop) {
  bool cancelled = false;
  const auto deficit =
      mw_flow_deficit(inst, active_slots, nullptr, should_stop, &cancelled);
  if (cancelled) return FeasStatus::kCancelled;
  return deficit == 0 ? FeasStatus::kFeasible : FeasStatus::kInfeasible;
}

std::optional<ActiveSchedule> mw_extract_assignment(
    const MultiWindowInstance& inst, std::vector<SlotTime> active_slots) {
  std::vector<std::vector<SlotTime>> assignment;
  if (mw_flow_deficit(inst, active_slots, &assignment) != 0) {
    return std::nullopt;
  }
  ActiveSchedule sched;
  sched.active_slots = std::move(active_slots);
  sched.job_slots = std::move(assignment);
  for (auto& s : sched.job_slots) std::sort(s.begin(), s.end());
  return sched;
}

bool mw_check_schedule(const MultiWindowInstance& inst,
                       const ActiveSchedule& sched, std::string* why) {
  auto fail = [&](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return false;
  };
  if (static_cast<int>(sched.job_slots.size()) != inst.size()) {
    return fail("job_slots size mismatch");
  }
  // Per-slot unit counts over [first, horizon]: every counted slot lies in
  // some job window (first is 1 unless a window starts below 0).
  SlotTime first = 1;
  for (const MultiWindowJob& job : inst.jobs()) {
    for (const auto& [r, d] : job.windows) first = std::min(first, r + 1);
  }
  std::vector<int> load(static_cast<std::size_t>(inst.horizon() - first) + 1,
                        0);
  for (JobId j = 0; j < inst.size(); ++j) {
    const MultiWindowJob& job = inst.job(j);
    const auto& slots = sched.job_slots[static_cast<std::size_t>(j)];
    if (static_cast<SlotTime>(slots.size()) != job.length) {
      return fail("job " + std::to_string(j) + " wrong unit count");
    }
    SlotTime prev = -1;
    for (SlotTime t : slots) {
      if (t == prev) return fail("duplicate slot for job " + std::to_string(j));
      prev = t;
      if (!job.live_in_slot(t)) {
        return fail("job " + std::to_string(j) + " outside windows at " +
                    std::to_string(t));
      }
      if (!std::binary_search(sched.active_slots.begin(),
                              sched.active_slots.end(), t)) {
        return fail("inactive slot used");
      }
      ++load[static_cast<std::size_t>(t - first)];
    }
  }
  for (SlotTime t = first; t <= inst.horizon(); ++t) {
    if (load[static_cast<std::size_t>(t - first)] > inst.capacity()) {
      return fail("slot " + std::to_string(t) + " over capacity");
    }
  }
  return true;
}

std::optional<ActiveSchedule> mw_solve_minimal_feasible(
    const MultiWindowInstance& inst) {
  // One warm-started network over the candidate slots: adding every job
  // decides feasibility, then each left-to-right closing probe re-routes
  // only the units of the slot it closes.
  const std::vector<SlotTime> slots = mw_candidate_slots(inst);
  FeasibilityNetwork network(static_cast<int>(slots.size()), inst.capacity());
  std::vector<int> job_slots;
  for (const MultiWindowJob& job : inst.jobs()) {
    job_slots.clear();
    for (const auto& [r, d] : job.windows) {
      const auto lo = std::lower_bound(slots.begin(), slots.end(), r + 1);
      for (auto it = lo; it != slots.end() && *it <= d; ++it) {
        job_slots.push_back(static_cast<int>(it - slots.begin()));
      }
    }
    if (network.try_add_job(job.length, job_slots) != FeasStatus::kFeasible) {
      return std::nullopt;
    }
  }
  std::vector<SlotTime> open;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (network.try_close(static_cast<int>(i)) != FeasStatus::kFeasible) {
      open.push_back(slots[i]);
    }
  }
  return mw_extract_assignment(inst, std::move(open));
}

namespace {

struct SubsetSearchResult {
  std::vector<SlotTime> open;
  bool proven_optimal = true;
};

/// Best (fewest-bits) feasible candidate-slot subset, or nullopt when
/// infeasible. With a context, seeds the incumbent from the
/// minimal-feasible solution and polls every 4096 masks; an interrupted
/// enumeration returns the best subset seen with proven_optimal = false.
std::optional<SubsetSearchResult> mw_best_slot_subset(
    const MultiWindowInstance& inst,
    const core::RunContext* context = nullptr) {
  const std::vector<SlotTime> candidates = mw_candidate_slots(inst);
  const std::size_t m = candidates.size();
  ABT_ASSERT(m <= 22, "brute force limited to 22 candidate slots");
  SubsetSearchResult result;
  long best = -1;
  if (context != nullptr) {
    // Anytime seed: a feasible (if non-minimal-cost) incumbent before the
    // enumeration starts, so even an instantly-expired budget returns one.
    // No seed means the FULL candidate set is infeasible, which proves
    // every subset infeasible — conclude immediately instead of letting
    // the enumeration run past the budget with nothing to return.
    auto minimal = mw_solve_minimal_feasible(inst);
    if (!minimal.has_value()) return std::nullopt;
    best = static_cast<long>(minimal->active_slots.size());
    result.open = std::move(minimal->active_slots);
    context->report_incumbent(static_cast<double>(best),
                              [&] { return core::render_slots(result.open); });
  }
  // Per-flow stop predicate: only armed once a feasible incumbent exists,
  // so an interrupted flow never leaves the search with nothing to return.
  const std::function<bool()> stop =
      context == nullptr ? std::function<bool()>{}
                         : [context] { return context->should_stop(); };
  for (std::uint64_t mask = 0; mask < (1ULL << m); ++mask) {
    if ((mask & 4095ULL) == 0 && context != nullptr && best >= 0 &&
        context->should_stop()) {
      result.proven_optimal = false;
      break;
    }
    const int bits = __builtin_popcountll(mask);
    if (best >= 0 && bits >= best) continue;
    std::vector<SlotTime> open;
    for (std::size_t i = 0; i < m; ++i) {
      if ((mask >> i) & 1ULL) open.push_back(candidates[i]);
    }
    const FeasStatus status = mw_feasibility_with_slots(
        inst, open, best >= 0 ? stop : std::function<bool()>{});
    if (status == FeasStatus::kCancelled) {
      // An abandoned flow proves nothing about this mask — keep the
      // incumbent and stop enumerating instead of misreading it.
      result.proven_optimal = false;
      break;
    }
    if (status == FeasStatus::kFeasible) {
      best = bits;
      result.open = std::move(open);
      if (context != nullptr) {
        context->report_incumbent(
            static_cast<double>(best),
            [&] { return core::render_slots(result.open); });
      }
    }
  }
  if (best < 0) return std::nullopt;
  return result;
}

}  // namespace

long mw_brute_force_opt(const MultiWindowInstance& inst) {
  const auto best = mw_best_slot_subset(inst);
  return best.has_value() ? static_cast<long>(best->open.size()) : -1;
}

std::optional<ActiveSchedule> mw_solve_exact(const MultiWindowInstance& inst) {
  auto best = mw_best_slot_subset(inst);
  if (!best.has_value()) return std::nullopt;
  return mw_extract_assignment(inst, std::move(best->open));
}

std::optional<MultiWindowExactResult> mw_solve_exact_anytime(
    const MultiWindowInstance& inst, MultiWindowExactOptions options) {
  auto best = mw_best_slot_subset(inst, options.context);
  if (!best.has_value()) return std::nullopt;
  MultiWindowExactResult result;
  result.proven_optimal = best->proven_optimal;
  auto schedule = mw_extract_assignment(inst, std::move(best->open));
  if (!schedule.has_value()) return std::nullopt;
  result.schedule = std::move(*schedule);
  return result;
}

}  // namespace abt::active
