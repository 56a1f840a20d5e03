#pragma once

#include "busy/dp_unbounded.hpp"
#include "core/busy_schedule.hpp"
#include "core/continuous_instance.hpp"

namespace abt::busy {

/// Interval-job algorithm applied after the g = infinity conversion.
enum class IntervalAlgorithm {
  kGreedyTracking,   ///< Theorem 5 -> 3-approx end to end (section 4.3).
  kTwoTrackPeeling,  ///< Theorem 3 charging -> 4-approx end to end (Thm 10).
  kFirstFit,         ///< Flammini et al. baseline -> no better than 4.
  kFirstFitByRelease ///< Release-ordered FIRSTFIT baseline.
};

struct FlexiblePipelineResult {
  core::BusySchedule schedule;
  double opt_infinity = 0.0;  ///< Busy time of the g=infinity DP (span LB).
  bool dp_exact = true;       ///< g=infinity solve stayed within budget.
};

/// The paper's recipe for flexible jobs (section 4.3): solve g = infinity
/// optimally, freeze every job at its DP position (making the instance one
/// of interval jobs), then run an interval-job algorithm. GreedyTracking
/// yields the paper's headline 3-approximation; the profile-charging
/// algorithms yield 4 (Theorem 10, tight on the Fig 10 gadget).
/// Equivalent to the overload below on solve_unbounded(inst, dp_options).
[[nodiscard]] FlexiblePipelineResult schedule_flexible(
    const core::ContinuousInstance& inst,
    IntervalAlgorithm algorithm = IntervalAlgorithm::kGreedyTracking,
    UnboundedOptions dp_options = {});

/// The same pipeline on an already computed g = infinity solution of
/// `inst`, so callers holding one (the registry's per-instance DP slot)
/// freeze from it instead of solving the DP again.
[[nodiscard]] FlexiblePipelineResult schedule_flexible(
    const core::ContinuousInstance& inst, const UnboundedSolution& unbounded,
    IntervalAlgorithm algorithm = IntervalAlgorithm::kGreedyTracking);

}  // namespace abt::busy
