#include "active/feasibility.hpp"

#include <algorithm>

#include "core/assert.hpp"
#include "flow/dinic.hpp"

namespace abt::active {

using core::ActiveSchedule;
using core::JobId;
using core::SlotTime;
using core::SlottedInstance;

namespace {

/// Builds G_feas and runs max-flow. Returns the deficit (0 iff feasible),
/// plus (optionally) the per-(job, slot) routed units through
/// `assignment_out`. When `should_stop` trips mid-flow, sets `*cancelled`
/// and the returned deficit is meaningless.
flow::Dinic::Cap run_feasibility_flow(
    const SlottedInstance& inst, const std::vector<SlotTime>& active_slots,
    const std::function<bool()>& should_stop, bool* cancelled,
    const std::vector<JobId>* jobs_subset,
    std::vector<std::vector<SlotTime>>* assignment_out) {
  std::vector<JobId> jobs;
  if (jobs_subset != nullptr) {
    jobs = *jobs_subset;
  } else {
    jobs.resize(static_cast<std::size_t>(inst.size()));
    for (JobId j = 0; j < inst.size(); ++j) {
      jobs[static_cast<std::size_t>(j)] = j;
    }
  }

  const int num_jobs = static_cast<int>(jobs.size());
  const int num_slots = static_cast<int>(active_slots.size());
  // Node layout: 0 = source, 1..num_jobs = jobs, then slots, then sink.
  const int source = 0;
  const int sink = 1 + num_jobs + num_slots;
  flow::Dinic dinic(sink + 1);

  struct JobSlotEdge {
    JobId job;
    SlotTime slot;
    flow::Dinic::EdgeRef edge;
  };
  std::vector<JobSlotEdge> job_slot_edges;

  flow::Dinic::Cap total_work = 0;
  for (int ji = 0; ji < num_jobs; ++ji) {
    const core::SlottedJob& job =
        inst.job(jobs[static_cast<std::size_t>(ji)]);
    dinic.add_edge(source, 1 + ji, job.length);
    total_work += job.length;
    // Job -> live slot edges. active_slots is sorted; restrict to window.
    const auto lo = std::upper_bound(active_slots.begin(), active_slots.end(),
                                     job.release);
    for (auto it = lo; it != active_slots.end() && *it <= job.deadline; ++it) {
      const int slot_node =
          1 + num_jobs + static_cast<int>(it - active_slots.begin());
      const auto edge = dinic.add_edge(1 + ji, slot_node, 1);
      if (assignment_out != nullptr) {
        job_slot_edges.push_back(
            {jobs[static_cast<std::size_t>(ji)], *it, edge});
      }
    }
  }
  for (int si = 0; si < num_slots; ++si) {
    dinic.add_edge(1 + num_jobs + si, sink, inst.capacity());
  }

  flow::Dinic::Options flow_options;
  flow_options.should_stop = should_stop;
  bool flow_cancelled = false;
  const auto flow_value =
      dinic.max_flow(source, sink, flow_options, &flow_cancelled);
  if (cancelled != nullptr) *cancelled = flow_cancelled;
  if (flow_cancelled) return total_work;  // deficit is meaningless here
  if (assignment_out != nullptr && flow_value == total_work) {
    assignment_out->assign(static_cast<std::size_t>(inst.size()), {});
    for (const JobSlotEdge& e : job_slot_edges) {
      if (dinic.flow_on(e.edge) > 0) {
        (*assignment_out)[static_cast<std::size_t>(e.job)].push_back(e.slot);
      }
    }
  }
  return total_work - flow_value;  // deficit: 0 iff feasible
}

}  // namespace

FeasStatus feasibility_with_slots(const SlottedInstance& inst,
                                  const std::vector<SlotTime>& active_slots,
                                  const std::function<bool()>& should_stop,
                                  const std::vector<JobId>* jobs_subset) {
  ABT_ASSERT(std::is_sorted(active_slots.begin(), active_slots.end()),
             "active slots must be sorted");
  bool cancelled = false;
  const auto deficit = run_feasibility_flow(inst, active_slots, should_stop,
                                            &cancelled, jobs_subset, nullptr);
  if (cancelled) return FeasStatus::kCancelled;
  return deficit == 0 ? FeasStatus::kFeasible : FeasStatus::kInfeasible;
}

bool is_feasible_with_slots(const SlottedInstance& inst,
                            const std::vector<SlotTime>& active_slots,
                            const std::vector<JobId>* jobs_subset) {
  return feasibility_with_slots(inst, active_slots, {}, jobs_subset) ==
         FeasStatus::kFeasible;
}

bool is_feasible(const SlottedInstance& inst) {
  return is_feasible_with_slots(inst, candidate_slots(inst));
}

std::optional<ActiveSchedule> extract_assignment(
    const SlottedInstance& inst, std::vector<SlotTime> active_slots,
    const std::function<bool()>& should_stop, bool* cancelled) {
  ABT_ASSERT(std::is_sorted(active_slots.begin(), active_slots.end()),
             "active slots must be sorted");
  if (cancelled != nullptr) *cancelled = false;
  std::vector<std::vector<SlotTime>> assignment;
  if (run_feasibility_flow(inst, active_slots, should_stop, cancelled,
                           nullptr, &assignment) != 0) {
    return std::nullopt;
  }
  ActiveSchedule sched;
  sched.active_slots = std::move(active_slots);
  sched.job_slots = std::move(assignment);
  for (auto& slots : sched.job_slots) std::sort(slots.begin(), slots.end());
  return sched;
}

std::vector<SlotTime> candidate_slots(const SlottedInstance& inst) {
  std::vector<char> live(static_cast<std::size_t>(inst.horizon()) + 1, 0);
  for (const core::SlottedJob& job : inst.jobs()) {
    for (SlotTime t = job.release + 1; t <= job.deadline; ++t) {
      live[static_cast<std::size_t>(t)] = 1;
    }
  }
  std::vector<SlotTime> out;
  for (SlotTime t = 1; t <= inst.horizon(); ++t) {
    if (live[static_cast<std::size_t>(t)] != 0) out.push_back(t);
  }
  return out;
}

namespace {

constexpr std::size_t ix(int i) { return static_cast<std::size_t>(i); }

bool stop_requested(const std::function<bool()>& should_stop) {
  return should_stop && should_stop();
}

}  // namespace

FeasibilityNetwork::FeasibilityNetwork(int num_slots, int capacity)
    : capacity_(capacity),
      slot_open_(ix(num_slots), 1),
      slot_load_(ix(num_slots), 0),
      slot_first_user_(ix(num_slots), -1),
      slot_seen_(ix(num_slots), 0),
      slot_via_(ix(num_slots), -1) {
  ABT_ASSERT(num_slots >= 0 && capacity >= 0,
             "negative slot count or capacity");
}

void FeasibilityNetwork::link(int edge) {
  const int slot = edge_slot_[ix(edge)];
  const int head = slot_first_user_[ix(slot)];
  edge_prev_user_[ix(edge)] = -1;
  edge_next_user_[ix(edge)] = head;
  if (head >= 0) edge_prev_user_[ix(head)] = edge;
  slot_first_user_[ix(slot)] = edge;
  edge_used_[ix(edge)] = 1;
  ++slot_load_[ix(slot)];
  --job_unrouted_[ix(edge_job_[ix(edge)])];
}

void FeasibilityNetwork::unlink(int edge) {
  const int slot = edge_slot_[ix(edge)];
  const int prev = edge_prev_user_[ix(edge)];
  const int next = edge_next_user_[ix(edge)];
  if (prev >= 0) {
    edge_next_user_[ix(prev)] = next;
  } else {
    slot_first_user_[ix(slot)] = next;
  }
  if (next >= 0) edge_prev_user_[ix(next)] = prev;
  edge_used_[ix(edge)] = 0;
  --slot_load_[ix(slot)];
  ++job_unrouted_[ix(edge_job_[ix(edge)])];
}

void FeasibilityNetwork::fill(int edge) {
  link(edge);
  log_.push_back(edge);
}

void FeasibilityNetwork::unfill(int edge) {
  unlink(edge);
  log_.push_back(~edge);
}

void FeasibilityNetwork::rollback() {
  while (!log_.empty()) {
    const int op = log_.back();
    log_.pop_back();
    if (op >= 0) {
      unlink(op);
    } else {
      link(~op);
    }
  }
}

/// One unit augmenting path source -> `start` -> ... -> sink, found by
/// breadth-first search over the residual graph: from a job, any unused
/// edge into an open slot; from a full slot, back to each job routing a
/// unit through it (that job gives the slot up and must route elsewhere);
/// a slot with spare capacity ends the path. Returns false when the sink
/// is unreachable from `start`, which (the rest of the flow routing every
/// other unit) means no flow routes all units.
bool FeasibilityNetwork::augment_from(int start) {
  if (++epoch_ == 0) {  // stamps wrapped: forget every old mark
    std::fill(job_seen_.begin(), job_seen_.end(), 0);
    std::fill(slot_seen_.begin(), slot_seen_.end(), 0);
    epoch_ = 1;
  }
  queue_.clear();
  queue_.push_back(start);
  job_seen_[ix(start)] = epoch_;
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const int job = queue_[head];
    for (int e = job_edge_begin_[ix(job)]; e < job_edge_begin_[ix(job) + 1];
         ++e) {
      const int slot = edge_slot_[ix(e)];
      if (edge_used_[ix(e)] != 0 || slot_open_[ix(slot)] == 0 ||
          slot_seen_[ix(slot)] == epoch_) {
        continue;
      }
      slot_seen_[ix(slot)] = epoch_;
      slot_via_[ix(slot)] = e;
      if (slot_load_[ix(slot)] < capacity_) {
        // Push the unit back along the path: each job on it takes the
        // slot it reached and gives up the one it was reached through.
        for (int s = slot;;) {
          const int in = slot_via_[ix(s)];
          fill(in);
          const int from = edge_job_[ix(in)];
          if (from == start) return true;
          const int out = job_via_[ix(from)];
          s = edge_slot_[ix(out)];
          unfill(out);
        }
      }
      for (int u = slot_first_user_[ix(slot)]; u >= 0;
           u = edge_next_user_[ix(u)]) {
        const int other = edge_job_[ix(u)];
        if (job_seen_[ix(other)] == epoch_) continue;
        job_seen_[ix(other)] = epoch_;
        job_via_[ix(other)] = u;
        queue_.push_back(other);
      }
    }
  }
  return false;
}

/// Routes every unit of the jobs in `pending_`, one augmenting path each.
FeasStatus FeasibilityNetwork::route_unrouted(
    const std::function<bool()>& should_stop) {
  int paths = 0;
  for (const int job : pending_) {
    while (job_unrouted_[ix(job)] > 0) {
      if (++paths % kStopPollPaths == 0 && stop_requested(should_stop)) {
        return FeasStatus::kCancelled;
      }
      if (!augment_from(job)) return FeasStatus::kInfeasible;
    }
  }
  return FeasStatus::kFeasible;
}

FeasStatus FeasibilityNetwork::try_add_job(
    SlotTime length, const std::vector<int>& slots,
    const std::function<bool()>& should_stop) {
  if (stop_requested(should_stop)) return FeasStatus::kCancelled;
  const int job = num_jobs();
  for (const int slot : slots) {
    ABT_ASSERT(slot >= 0 && slot < num_slots(), "job slot out of range");
    edge_job_.push_back(job);
    edge_slot_.push_back(slot);
    edge_used_.push_back(0);
    edge_next_user_.push_back(-1);
    edge_prev_user_.push_back(-1);
  }
  job_edge_begin_.push_back(static_cast<int>(edge_job_.size()));
  job_unrouted_.push_back(length);
  job_seen_.push_back(0);
  job_via_.push_back(-1);

  log_.clear();
  pending_.assign(1, job);
  const FeasStatus status = route_unrouted(should_stop);
  if (status != FeasStatus::kFeasible) {
    rollback();
    const std::size_t first_edge = ix(job_edge_begin_[ix(job)]);
    edge_job_.resize(first_edge);
    edge_slot_.resize(first_edge);
    edge_used_.resize(first_edge);
    edge_next_user_.resize(first_edge);
    edge_prev_user_.resize(first_edge);
    job_edge_begin_.pop_back();
    job_unrouted_.pop_back();
    job_seen_.pop_back();
    job_via_.pop_back();
  }
  return status;
}

FeasStatus FeasibilityNetwork::try_close(
    int slot, const std::function<bool()>& should_stop) {
  ABT_ASSERT(slot >= 0 && slot < num_slots(), "slot out of range");
  if (!is_open(slot)) return FeasStatus::kFeasible;
  if (stop_requested(should_stop)) return FeasStatus::kCancelled;
  log_.clear();
  pending_.clear();
  slot_open_[ix(slot)] = 0;
  while (slot_first_user_[ix(slot)] >= 0) {
    const int edge = slot_first_user_[ix(slot)];
    pending_.push_back(edge_job_[ix(edge)]);
    unfill(edge);
  }
  const FeasStatus status = route_unrouted(should_stop);
  if (status != FeasStatus::kFeasible) {
    rollback();
    slot_open_[ix(slot)] = 1;
  }
  return status;
}

}  // namespace abt::active
