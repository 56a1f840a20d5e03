#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/active_schedule.hpp"
#include "core/slotted_instance.hpp"

namespace abt::active {

/// Tri-state verdict of a cancellable feasibility check. The third state
/// exists so an abandoned flow computation can never be misread as
/// "infeasible" — Dinic returns only a lower bound on the max flow when
/// stopped early.
enum class FeasStatus {
  kFeasible,
  kInfeasible,
  kCancelled,
};

/// Flow-based feasibility for the active-time model (the network G_feas of
/// Fig 2): source -> job (cap p_j), job -> live active slot (cap 1),
/// active slot -> sink (cap g). The instance restricted to `active_slots`
/// is feasible iff max-flow == total work.
///
/// `should_stop` (may be empty) is polled inside the max-flow — per BFS
/// phase and every Dinic::kStopPollPaths augmenting paths; when it trips
/// the check returns kCancelled. A plain callback (the simplex / Dinic
/// pattern) so callers decide whether "stop" means cancellation only
/// (polynomial solvers, whose output a budget must not change) or
/// cancellation + budget (budgeted exact search).
///
/// `jobs_subset` (optional) restricts the check to those job ids; used by
/// the LP rounding which checks prefixes "all jobs with deadline <= t_di".
[[nodiscard]] FeasStatus feasibility_with_slots(
    const core::SlottedInstance& inst,
    const std::vector<core::SlotTime>& active_slots,
    const std::function<bool()>& should_stop,
    const std::vector<core::JobId>* jobs_subset = nullptr);

/// Boolean convenience wrapper (no cancellation): kFeasible => true.
[[nodiscard]] bool is_feasible_with_slots(
    const core::SlottedInstance& inst,
    const std::vector<core::SlotTime>& active_slots,
    const std::vector<core::JobId>* jobs_subset = nullptr);

/// True when the instance is feasible with every slot 1..T active.
[[nodiscard]] bool is_feasible(const core::SlottedInstance& inst);

/// Computes an integral assignment of all jobs into `active_slots` via
/// max-flow (integrality of flow gives an integral schedule, paper sec. 2).
/// Returns nullopt when infeasible — or when `should_stop` tripped, in
/// which case `*cancelled` (when non-null) is set so the caller can tell
/// the two apart.
[[nodiscard]] std::optional<core::ActiveSchedule> extract_assignment(
    const core::SlottedInstance& inst,
    std::vector<core::SlotTime> active_slots,
    const std::function<bool()>& should_stop = {}, bool* cancelled = nullptr);

/// Slots in which at least one job is live — the only candidates worth
/// opening. Sorted ascending.
[[nodiscard]] std::vector<core::SlotTime> candidate_slots(
    const core::SlottedInstance& inst);

/// Warm-started feasibility: one residual flow over the Fig 2 network,
/// held across a sequence of probes that each change the network by one
/// node — closing an open slot or appending a job. Between probes the held
/// flow routes every job's full length, so a probe re-routes only the
/// units it displaces: at most g unit augmentations to close a slot, p_j
/// to add a job, instead of a max-flow from zero over a rebuilt network.
///
/// A probe that fails (or is cancelled) undoes every push it logged, so
/// the held flow and the open set are exactly as before it. Whether "open
/// slots minus t" or "jobs plus j" is feasible depends only on that set,
/// never on which flow is held, so a sequence of probes answers exactly as
/// a fresh max-flow per probe would. The network answers yes/no only; a
/// schedule comes from extract_assignment on the final set.
///
/// Slots are indices 0..num_slots-1 (the caller maps them to slot times),
/// every one open and of capacity g at construction; a job is its length
/// and the slot indices it may use. The layout is flat: per-job edge
/// ranges, and per slot an intrusive list of the (at most g) edges that
/// route a unit through it.
class FeasibilityNetwork {
 public:
  FeasibilityNetwork(int num_slots, int capacity);

  /// Appends a job of `length` units that may use `slots` (one cap-1 edge
  /// per entry) and routes its units. Infeasible or cancelled: the job is
  /// removed again and the held flow is unchanged.
  FeasStatus try_add_job(core::SlotTime length, const std::vector<int>& slots,
                         const std::function<bool()>& should_stop = {});

  /// Closes open slot `slot` and re-routes the units it carried. Infeasible
  /// or cancelled: the slot is reopened and the held flow is unchanged.
  FeasStatus try_close(int slot, const std::function<bool()>& should_stop = {});

  [[nodiscard]] bool is_open(int slot) const {
    return slot_open_[static_cast<std::size_t>(slot)] != 0;
  }
  [[nodiscard]] int num_slots() const {
    return static_cast<int>(slot_open_.size());
  }
  [[nodiscard]] int num_jobs() const {
    return static_cast<int>(job_unrouted_.size());
  }

  /// Augmenting paths between two polls of `should_stop` within one probe
  /// (each probe also polls once before it starts).
  static constexpr int kStopPollPaths = 64;

 private:
  void fill(int edge);    // route one unit over `edge`, logged
  void unfill(int edge);  // take it back, logged
  void link(int edge);
  void unlink(int edge);
  void rollback();
  bool augment_from(int job);
  FeasStatus route_unrouted(const std::function<bool()>& should_stop);

  int capacity_;
  // Jobs: edge range [job_edge_begin_[j], job_edge_begin_[j + 1]).
  std::vector<int> job_edge_begin_{0};
  std::vector<core::SlotTime> job_unrouted_;  // units not yet routed
  // Edges job -> slot, capacity 1.
  std::vector<int> edge_job_;
  std::vector<int> edge_slot_;
  std::vector<char> edge_used_;
  std::vector<int> edge_next_user_;  // slot's user list, -1 ends it
  std::vector<int> edge_prev_user_;
  // Slots.
  std::vector<char> slot_open_;
  std::vector<int> slot_load_;
  std::vector<int> slot_first_user_;
  // Undo log of the running probe: edge e filled, or ~e unfilled.
  std::vector<int> log_;
  // Jobs whose units the running probe displaced (re-routed in order).
  std::vector<int> pending_;
  // Breadth-first search scratch, epoch-stamped so nothing is cleared.
  std::vector<std::uint32_t> job_seen_;
  std::vector<std::uint32_t> slot_seen_;
  std::vector<int> job_via_;   // user edge the job was reached through
  std::vector<int> slot_via_;  // free edge the slot was reached through
  std::vector<int> queue_;
  std::uint32_t epoch_ = 0;
};

}  // namespace abt::active
