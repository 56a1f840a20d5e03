#include "active/minimal_feasible.hpp"

#include <algorithm>
#include <numeric>

#include "active/feasibility.hpp"
#include "core/rng.hpp"

namespace abt::active {

using core::ActiveSchedule;
using core::SlotTime;
using core::SlottedInstance;

namespace {

std::vector<std::size_t> closing_order(const SlottedInstance& inst,
                                       const std::vector<SlotTime>& slots,
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

}  // namespace

std::optional<ActiveSchedule> solve_minimal_feasible(
    const SlottedInstance& inst, MinimalFeasibleOptions options,
    bool* cancelled) {
  if (cancelled != nullptr) *cancelled = false;
  // Cancellation only — never the budget. A deadline must not change what
  // this polynomial solver returns; a hard cancel may stop the closing
  // pass early because any prefix of it leaves a feasible set.
  const std::function<bool()> cancel_poll =
      options.context == nullptr
          ? std::function<bool()>{}
          : [ctx = options.context] { return ctx->cancelled(); };

  // One warm-started network carries the whole solve: the jobs are added
  // over every candidate slot (feasibility of the instance), then each
  // closing probe re-routes only the units of the slot it closes.
  const std::vector<SlotTime> slots = candidate_slots(inst);
  FeasibilityNetwork network(static_cast<int>(slots.size()), inst.capacity());
  // Each probe polls on its own; this one makes a pre-cancelled context
  // report cancellation even when there is no job to add.
  if (cancel_poll && cancel_poll()) {
    if (cancelled != nullptr) *cancelled = true;
    return std::nullopt;
  }
  std::vector<int> job_slots;
  for (const core::SlottedJob& job : inst.jobs()) {
    job_slots.clear();
    const auto lo = std::upper_bound(slots.begin(), slots.end(), job.release);
    for (auto it = lo; it != slots.end() && *it <= job.deadline; ++it) {
      job_slots.push_back(static_cast<int>(it - slots.begin()));
    }
    switch (network.try_add_job(job.length, job_slots, cancel_poll)) {
      case FeasStatus::kInfeasible:
        return std::nullopt;
      case FeasStatus::kCancelled:
        if (cancelled != nullptr) *cancelled = true;
        return std::nullopt;
      case FeasStatus::kFeasible:
        break;
    }
  }

  // One pass suffices: closing slots only shrinks the feasible set, so a
  // slot that could not be closed earlier can never be closed later.
  for (const std::size_t idx : closing_order(inst, slots, options)) {
    const FeasStatus status =
        network.try_close(static_cast<int>(idx), cancel_poll);
    if (status == FeasStatus::kCancelled) break;  // keep the feasible set
  }

  std::vector<SlotTime> final_slots;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (network.is_open(static_cast<int>(i))) final_slots.push_back(slots[i]);
  }
  // The final extraction must complete to return anything at all — it is
  // one flow on an already-feasible set, so it is not worth interrupting.
  return extract_assignment(inst, std::move(final_slots));
}

}  // namespace abt::active
