#pragma once

// Rebuild-per-probe implementations of the active-time closing passes and
// the feasible slotted generator, kept verbatim as they stood before the
// warm-started FeasibilityNetwork: every probe builds a new flow::Dinic
// network over the whole trial set and runs a max-flow from zero. They are
// the single source of truth for
// (a) the equivalence suite (tests/test_feasibility_network.cpp), which
// asserts the warm-started passes reproduce these slot-for-slot and
// instance-for-instance, and
// (b) the BM_*Naive baselines in bench/bench_perf.cpp
// (BM_MinimalFeasibleNaive, BM_FeasibleSlottedGenNaive).
// Do not optimize this header; its value is staying frozen.
//
// The multi-window feasibility check is frozen with its std::map from slot
// time to flow node, rebuilt on every call.

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <vector>

#include "active/feasibility.hpp"
#include "active/minimal_feasible.hpp"
#include "active/multi_window.hpp"
#include "core/rng.hpp"
#include "core/slotted_instance.hpp"
#include "flow/dinic.hpp"
#include "gen/random_instances.hpp"

namespace abt::active::naive {

inline std::vector<std::size_t> closing_order(
    const core::SlottedInstance& inst, const std::vector<core::SlotTime>& slots,
    const MinimalFeasibleOptions& options) {
  std::vector<std::size_t> order(slots.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  switch (options.order) {
    case CloseOrder::kLeftToRight:
      break;  // already ascending
    case CloseOrder::kRightToLeft:
      std::reverse(order.begin(), order.end());
      break;
    case CloseOrder::kSparsestFirst:
    case CloseOrder::kDensestFirst: {
      std::vector<int> live_count(slots.size(), 0);
      for (std::size_t i = 0; i < slots.size(); ++i) {
        live_count[i] = static_cast<int>(inst.live_jobs(slots[i]).size());
      }
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return options.order == CloseOrder::kSparsestFirst
                                    ? live_count[a] < live_count[b]
                                    : live_count[a] > live_count[b];
                       });
      break;
    }
    case CloseOrder::kRandom: {
      core::Rng rng(options.seed);
      std::shuffle(order.begin(), order.end(), rng.engine());
      break;
    }
  }
  return order;
}

/// active::solve_minimal_feasible with one fresh max-flow per probe.
inline std::optional<core::ActiveSchedule> solve_minimal_feasible(
    const core::SlottedInstance& inst, MinimalFeasibleOptions options = {},
    bool* cancelled = nullptr) {
  using core::SlotTime;
  if (cancelled != nullptr) *cancelled = false;
  const std::function<bool()> cancel_poll =
      options.context == nullptr
          ? std::function<bool()>{}
          : [ctx = options.context] { return ctx->cancelled(); };

  std::vector<SlotTime> slots = candidate_slots(inst);
  switch (feasibility_with_slots(inst, slots, cancel_poll)) {
    case FeasStatus::kInfeasible:
      return std::nullopt;
    case FeasStatus::kCancelled:
      if (cancelled != nullptr) *cancelled = true;
      return std::nullopt;
    case FeasStatus::kFeasible:
      break;
  }

  const std::vector<std::size_t> order = closing_order(inst, slots, options);
  std::vector<char> open(slots.size(), 1);

  for (std::size_t idx : order) {
    open[idx] = 0;
    std::vector<SlotTime> trial;
    trial.reserve(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (open[i] != 0) trial.push_back(slots[i]);
    }
    const FeasStatus status = feasibility_with_slots(inst, trial, cancel_poll);
    if (status != FeasStatus::kFeasible) open[idx] = 1;
    if (status == FeasStatus::kCancelled) break;  // keep the feasible set
  }

  std::vector<SlotTime> final_slots;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (open[i] != 0) final_slots.push_back(slots[i]);
  }
  return extract_assignment(inst, std::move(final_slots));
}

/// The multi-window feasibility check with its per-call std::map from slot
/// time to flow node.
inline bool mw_is_feasible_with_slots(
    const MultiWindowInstance& inst,
    const std::vector<core::SlotTime>& slots) {
  using core::JobId;
  using core::SlotTime;
  const int num_jobs = inst.size();
  const int num_slots = static_cast<int>(slots.size());
  const int source = 0;
  const int sink = 1 + num_jobs + num_slots;
  flow::Dinic dinic(sink + 1);

  std::map<SlotTime, int> slot_node;
  for (int s = 0; s < num_slots; ++s) {
    slot_node[slots[static_cast<std::size_t>(s)]] = 1 + num_jobs + s;
  }

  flow::Dinic::Cap total_work = 0;
  for (JobId j = 0; j < num_jobs; ++j) {
    const MultiWindowJob& job = inst.job(j);
    dinic.add_edge(source, 1 + j, job.length);
    total_work += job.length;
    for (const auto& [r, d] : job.windows) {
      const auto lo = std::lower_bound(slots.begin(), slots.end(), r + 1);
      for (auto it = lo; it != slots.end() && *it <= d; ++it) {
        dinic.add_edge(1 + j, slot_node.at(*it), 1);
      }
    }
  }
  for (int s = 0; s < num_slots; ++s) {
    dinic.add_edge(1 + num_jobs + s, sink, inst.capacity());
  }
  return dinic.max_flow(source, sink) == total_work;
}

/// active::mw_solve_minimal_feasible with one fresh max-flow per probe.
inline std::optional<core::ActiveSchedule> mw_solve_minimal_feasible(
    const MultiWindowInstance& inst) {
  using core::SlotTime;
  std::vector<SlotTime> slots = mw_candidate_slots(inst);
  if (!naive::mw_is_feasible_with_slots(inst, slots)) return std::nullopt;
  for (std::size_t i = 0; i < slots.size();) {
    std::vector<SlotTime> trial = slots;
    trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
    if (naive::mw_is_feasible_with_slots(inst, trial)) {
      slots = std::move(trial);
    } else {
      ++i;
    }
  }
  return mw_extract_assignment(inst, std::move(slots));
}

/// gen::random_feasible_slotted with one fresh max-flow per admitted job.
inline core::SlottedInstance random_feasible_slotted(
    core::Rng& rng, const gen::SlottedParams& params) {
  using core::SlotTime;
  using core::SlottedJob;
  const auto random_slotted_job = [&rng, &params]() -> SlottedJob {
    const SlotTime length =
        params.unit_jobs ? 1 : rng.uniform_int(1, params.max_length);
    const SlotTime slack = rng.uniform_int(0, params.max_slack);
    const SlotTime window = std::min(length + slack, params.horizon);
    const SlotTime release = rng.uniform_int(0, params.horizon - window);
    return {release, release + window, length};
  };
  std::vector<SlottedJob> jobs;
  jobs.reserve(static_cast<std::size_t>(params.num_jobs));
  int attempts = 0;
  const int attempt_budget = 60 * params.num_jobs + 200;
  while (static_cast<int>(jobs.size()) < params.num_jobs &&
         attempts < attempt_budget) {
    SlottedJob job = random_slotted_job();
    if (++attempts > 40 * params.num_jobs) {
      job = {0, params.horizon, 1};  // low-impact filler
    }
    jobs.push_back(job);
    const core::SlottedInstance trial(jobs, params.capacity);
    if (!is_feasible(trial)) jobs.pop_back();
  }
  return core::SlottedInstance(std::move(jobs), params.capacity);
}

}  // namespace abt::active::naive
