#include "busy/dp_unbounded.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "core/assert.hpp"

namespace abt::busy {

using core::ContinuousInstance;
using core::Interval;
using core::JobId;

namespace {

/// Search key: (position, interned id of the unsatisfied stragglers in
/// canonical (release, id) order). Positions come from a finite derived
/// set, so exact double equality is safe. Pending sets are hash-consed into
/// a pool — many states share the same straggler set, so the memo key is 16
/// bytes and each distinct set is stored (and hashed) once.
struct StateKey {
  double t;
  int pending_id;

  bool operator==(const StateKey& o) const = default;
};

struct StateKeyHash {
  std::size_t operator()(const StateKey& key) const {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(key.t));
    std::memcpy(&bits, &key.t, sizeof(bits));
    mix(bits);
    mix(static_cast<std::uint64_t>(key.pending_id) + 0x9e3779b9ULL);
    return static_cast<std::size_t>(h);
  }
};

struct PendingVecHash {
  std::size_t operator()(const std::vector<JobId>& v) const {
    std::uint64_t h = 1469598103934665603ULL;
    for (JobId j : v) {
      h ^= static_cast<std::uint64_t>(j) + 0x9e3779b9ULL;
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

struct StateValue {
  double cost = std::numeric_limits<double>::infinity();
  double chosen_x = 0.0;
  double chosen_y = 0.0;
  bool terminal = false;
};

class UnboundedSolver {
 public:
  UnboundedSolver(const ContinuousInstance& inst,
                  const UnboundedOptions& options)
      : inst_(inst), options_(options) {
    const int n = inst_.size();
    r_.resize(static_cast<std::size_t>(n));
    p_.resize(static_cast<std::size_t>(n));
    k_.resize(static_cast<std::size_t>(n));
    expiry_.resize(static_cast<std::size_t>(n));
    for (JobId j = 0; j < n; ++j) {
      const core::ContinuousJob& job = inst_.job(j);
      r_[static_cast<std::size_t>(j)] = job.release;
      p_[static_cast<std::size_t>(j)] = job.length;
      k_[static_cast<std::size_t>(j)] = job.latest_start();
      expiry_[static_cast<std::size_t>(j)] = std::max(job.release,
                                                      job.latest_start());
    }
    // Candidate window starts: releases and latest starts. An exchange
    // argument (push each window's anchor right, merging on collision)
    // shows some optimal solution anchors every window at one of these.
    anchors_ = r_;
    anchors_.insert(anchors_.end(), k_.begin(), k_.end());
    std::sort(anchors_.begin(), anchors_.end());
    anchors_.erase(std::unique(anchors_.begin(), anchors_.end()),
                   anchors_.end());
    // Jobs indexed by release once, so unsatisfied_at binary-searches the
    // released-at-or-after-t suffix instead of scanning and sorting all n
    // jobs per memoized state.
    by_release_.resize(static_cast<std::size_t>(n));
    std::iota(by_release_.begin(), by_release_.end(), JobId{0});
    std::sort(by_release_.begin(), by_release_.end(), [this](JobId a, JobId b) {
      const double ra = r_[static_cast<std::size_t>(a)];
      const double rb = r_[static_cast<std::size_t>(b)];
      return ra < rb || (ra == rb && a < b);
    });
    release_sorted_.reserve(by_release_.size());
    for (JobId j : by_release_) {
      release_sorted_.push_back(r_[static_cast<std::size_t>(j)]);
    }
  }

  UnboundedSolution run() {
    UnboundedSolution out;
    const int n = inst_.size();
    out.starts.assign(static_cast<std::size_t>(n), 0.0);
    if (n == 0) return out;

    const double t0 = -std::numeric_limits<double>::infinity();
    const int empty_id = intern({});
    const double best = solve(t0, empty_id);
    if (exploded_) {
      // Fallback: push-left at release (valid upper bound; never triggered
      // by the test/bench workloads, which assert `exact`).
      for (JobId j = 0; j < n; ++j) {
        out.starts[static_cast<std::size_t>(j)] = r_[static_cast<std::size_t>(j)];
      }
      out.exact = false;
      out.timed_out = timed_out_;
    } else {
      reconstruct(t0, empty_id, out.starts);
      out.exact = true;
      (void)best;
    }
    std::vector<Interval> runs;
    runs.reserve(static_cast<std::size_t>(n));
    for (JobId j = 0; j < n; ++j) {
      const double s = out.starts[static_cast<std::size_t>(j)];
      runs.push_back({s, s + p_[static_cast<std::size_t>(j)]});
    }
    out.windows = core::interval_union(runs);
    out.busy_time = core::span_of(out.windows);
    out.nodes = static_cast<long>(memo_.size());
    out.interned = static_cast<long>(interner_.size());
    return out;
  }

 private:
  /// Obligation of job j for a window anchored at x: the earliest end a
  /// window starting at x must have to satisfy j (push-left position).
  [[nodiscard]] double obligation(JobId j, double x) const {
    return std::max(r_[static_cast<std::size_t>(j)], x) +
           p_[static_cast<std::size_t>(j)];
  }

  /// First job of `by_release_` released at or after t.
  [[nodiscard]] std::vector<JobId>::const_iterator released_from(
      double t) const {
    const auto cut =
        std::lower_bound(release_sorted_.begin(), release_sorted_.end(), t);
    return by_release_.begin() + (cut - release_sorted_.begin());
  }

  /// All jobs not yet satisfied at state (t, pending), into `out`: the
  /// carried stragglers plus every job released at or after t. Pending
  /// jobs are all released strictly before t and kept in (release, id)
  /// order, and the suffix of `by_release_` from the binary-searched cut is
  /// in the same order, so concatenation yields the canonical ordering with
  /// no sort.
  void unsatisfied_at(double t, const std::vector<JobId>& pending,
                      std::vector<JobId>& out) const {
    out.assign(pending.begin(), pending.end());
    out.insert(out.end(), released_from(t), by_release_.end());
  }

  /// Interns a pending vector, returning its pool id (hash-consing: equal
  /// vectors share one id and one stored copy). Lookup-first: the common
  /// hit path allocates nothing, and a new set is stored at its own size.
  int intern(const std::vector<JobId>& pending) {
    if (const auto it = interner_.find(pending); it != interner_.end()) {
      return it->second;
    }
    const auto it =
        interner_.emplace(pending, static_cast<int>(pool_.size())).first;
    pool_.push_back(&it->first);
    return it->second;
  }

  [[nodiscard]] const std::vector<JobId>& pending_set(int id) const {
    return *pool_[static_cast<std::size_t>(id)];
  }

  /// One candidate window [x, y] of a state that strands no job.
  struct Window {
    double x;
    double y;
  };

  /// The live windows of the state whose unsatisfied jobs are `todo_`, in
  /// (x, y) order. Runs no recursion, so it works in the solver-wide
  /// buffers; only the (short) result lives on in the caller's frame.
  std::vector<Window> live_windows(double t) {
    std::vector<Window> windows;
    // The next window is the earliest remaining, so it must start no later
    // than every unsatisfied job's latest start.
    double limit = std::numeric_limits<double>::infinity();
    for (JobId j : todo_) {
      limit = std::min(limit, k_[static_cast<std::size_t>(j)]);
    }
    // A window [x, y] is dead when it leaves behind a job it can no longer
    // serve: one released before y whose latest start is also before y
    // (expiry max(r_j, k_j) < y; d - p can round below r) but whose
    // obligation is past y. With the jobs in expiry order, one pointer over
    // the ascending ends keeps the running maximum of the expired jobs'
    // obligations, and y is dead iff that maximum is past y.
    by_expiry_.assign(todo_.begin(), todo_.end());
    std::sort(by_expiry_.begin(), by_expiry_.end(), [this](JobId a, JobId b) {
      return expiry_[static_cast<std::size_t>(a)] <
             expiry_[static_cast<std::size_t>(b)];
    });
    for (auto anchor = std::lower_bound(anchors_.begin(), anchors_.end(), t);
         anchor != anchors_.end() && *anchor <= limit + 1e-12; ++anchor) {
      // Polled per anchor, not per memo state: a large instance can spend
      // seconds in a few dozen states.
      if (options_.context != nullptr && options_.context->should_stop()) {
        exploded_ = true;
        timed_out_ = true;
        return {};
      }
      const double x = *anchor;
      // Candidate ends: obligations of the unsatisfied jobs.
      ends_.clear();
      for (JobId j : todo_) ends_.push_back(obligation(j, x));
      std::sort(ends_.begin(), ends_.end());
      ends_.erase(std::unique(ends_.begin(), ends_.end()), ends_.end());
      std::size_t expired = 0;
      double stranded = -std::numeric_limits<double>::infinity();
      for (double y : ends_) {
        for (; expired < by_expiry_.size() &&
               expiry_[static_cast<std::size_t>(by_expiry_[expired])] < y;
             ++expired) {
          stranded = std::max(stranded, obligation(by_expiry_[expired], x));
        }
        // A dead window is skipped: a longer one may save the straggler.
        if (stranded <= y + 1e-12) windows.push_back({x, y});
      }
    }
    return windows;
  }

  double solve(double t, int pending_id) {
    if (exploded_) return std::numeric_limits<double>::infinity();
    StateKey key{t, pending_id};
    if (const auto it = memo_.find(key); it != memo_.end()) {
      return it->second.cost;
    }
    if (static_cast<long>(memo_.size()) >= options_.state_limit) {
      exploded_ = true;
      return std::numeric_limits<double>::infinity();
    }

    const std::vector<JobId>& pending = pending_set(pending_id);
    unsatisfied_at(t, pending, todo_);
    StateValue value;
    if (todo_.empty()) {
      value.cost = 0.0;
      value.terminal = true;
      memo_.emplace(std::move(key), value);
      return 0.0;
    }
    const std::vector<Window> windows = live_windows(t);
    if (exploded_) return std::numeric_limits<double>::infinity();

    // The recursion below reuses todo_, so each window walks the
    // unsatisfied jobs from their sources: the interned pending set (its
    // node never moves) and the released-from-t suffix, which is in release
    // order and can stop at the first job released at or after y.
    const auto released = released_from(t);
    for (const Window& w : windows) {
      // Jobs satisfied by window [x, y]; the rest roll forward.
      next_pending_.clear();
      const auto roll_forward = [&](JobId j) {
        if (obligation(j, w.x) <= w.y + 1e-12) return;  // satisfied
        next_pending_.push_back(j);
      };
      for (JobId j : pending) roll_forward(j);
      for (auto it = released;
           it != by_release_.end() &&
           r_[static_cast<std::size_t>(*it)] < w.y;  // later ones: future
           ++it) {
        roll_forward(*it);
      }
      const double sub = solve(w.y, intern(next_pending_));
      if (exploded_) return std::numeric_limits<double>::infinity();
      const double total = (w.y - w.x) + sub;
      if (total < value.cost - 1e-12) {
        value.cost = total;
        value.chosen_x = w.x;
        value.chosen_y = w.y;
      }
    }
    ABT_ASSERT(value.cost < std::numeric_limits<double>::infinity(),
               "structurally valid instance always has a schedule");
    const double cost = value.cost;
    memo_.emplace(std::move(key), value);
    return cost;
  }

  void reconstruct(double t, int pending_id, std::vector<double>& starts) {
    while (true) {
      const auto it = memo_.find(StateKey{t, pending_id});
      ABT_ASSERT(it != memo_.end(), "state missing during reconstruction");
      const StateValue& value = it->second;
      if (value.terminal) return;
      const double x = value.chosen_x;
      const double y = value.chosen_y;
      unsatisfied_at(t, pending_set(pending_id), todo_);
      std::vector<JobId> next_pending;
      for (JobId j : todo_) {
        if (obligation(j, x) <= y + 1e-12) {
          starts[static_cast<std::size_t>(j)] =
              std::max(r_[static_cast<std::size_t>(j)], x);
        } else if (r_[static_cast<std::size_t>(j)] < y) {
          next_pending.push_back(j);
        }
      }
      t = y;
      pending_id = intern(next_pending);
    }
  }

  const ContinuousInstance& inst_;
  UnboundedOptions options_;
  std::vector<double> r_;
  std::vector<double> p_;
  std::vector<double> k_;
  std::vector<double> expiry_;  ///< max(r_j, k_j); later ends must serve j.
  std::vector<double> anchors_;
  std::vector<JobId> by_release_;        ///< Ids in (release, id) order.
  std::vector<double> release_sorted_;   ///< r_ values along by_release_.
  std::unordered_map<StateKey, StateValue, StateKeyHash> memo_;
  /// Hash-consing pool: content -> id, plus id -> content pointers (stable
  /// across rehash because unordered_map nodes never move).
  std::unordered_map<std::vector<JobId>, int, PendingVecHash> interner_;
  std::vector<const std::vector<JobId>*> pool_;
  /// Scratch shared by every state: nothing in them outlives a recursion.
  std::vector<JobId> todo_;
  std::vector<JobId> by_expiry_;
  std::vector<double> ends_;
  std::vector<JobId> next_pending_;
  bool exploded_ = false;
  bool timed_out_ = false;
};

}  // namespace

UnboundedSolution solve_unbounded(const ContinuousInstance& inst,
                                  UnboundedOptions options) {
  ABT_ASSERT(inst.structurally_valid(), "invalid instance");
  UnboundedSolver solver(inst, options);
  return solver.run();
}

ContinuousInstance freeze_to_interval_instance(
    const ContinuousInstance& inst, const UnboundedSolution& solution) {
  std::vector<core::ContinuousJob> jobs;
  jobs.reserve(static_cast<std::size_t>(inst.size()));
  for (JobId j = 0; j < inst.size(); ++j) {
    const double s = solution.starts[static_cast<std::size_t>(j)];
    const double p = inst.job(j).length;
    jobs.push_back({s, s + p, p});
  }
  return ContinuousInstance(std::move(jobs), inst.capacity());
}

}  // namespace abt::busy
