// Failure injection: take schedules produced by the real algorithms,
// corrupt them in targeted ways, and require the independent checkers to
// reject every corruption. This guards the guarantee that "checker accepts"
// is a meaningful oracle in all other tests.
#include <gtest/gtest.h>

#include "active/minimal_feasible.hpp"
#include "busy/greedy_tracking.hpp"
#include "busy/naive_baselines.hpp"
#include "busy/weighted.hpp"
#include "core/active_schedule.hpp"
#include "core/busy_schedule.hpp"
#include "core/rng.hpp"
#include "gen/extended_instances.hpp"
#include "gen/random_instances.hpp"

namespace abt {
namespace {

class ActiveFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ActiveFuzz, CorruptedActiveSchedulesAreRejected) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919ULL);
  gen::SlottedParams params;
  params.num_jobs = 8;
  params.horizon = 12;
  params.capacity = 2;
  const auto inst = gen::random_feasible_slotted(rng, params);
  const auto base = active::solve_minimal_feasible(inst);
  ASSERT_TRUE(base.has_value());
  ASSERT_TRUE(core::check_active_schedule(inst, *base));

  // Corruption 1: deactivate an active slot that is in use.
  {
    core::ActiveSchedule bad = *base;
    ASSERT_FALSE(bad.active_slots.empty());
    bad.active_slots.erase(bad.active_slots.begin());
    EXPECT_FALSE(core::check_active_schedule(inst, bad));
  }
  // Corruption 2: drop one unit of some job.
  {
    core::ActiveSchedule bad = *base;
    for (auto& slots : bad.job_slots) {
      if (!slots.empty()) {
        slots.pop_back();
        break;
      }
    }
    EXPECT_FALSE(core::check_active_schedule(inst, bad));
  }
  // Corruption 3: push a unit outside the job's window.
  {
    core::ActiveSchedule bad = *base;
    for (core::JobId j = 0; j < inst.size(); ++j) {
      auto& slots = bad.job_slots[static_cast<std::size_t>(j)];
      if (slots.empty()) continue;
      slots.back() = inst.job(j).deadline + 1;
      std::sort(slots.begin(), slots.end());
      break;
    }
    EXPECT_FALSE(core::check_active_schedule(inst, bad));
  }
  // Corruption 4: duplicate a unit in the same slot.
  {
    core::ActiveSchedule bad = *base;
    for (auto& slots : bad.job_slots) {
      if (!slots.empty()) {
        slots.push_back(slots.back());
        break;
      }
    }
    EXPECT_FALSE(core::check_active_schedule(inst, bad));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ActiveFuzz, ::testing::Range(1, 9));

class BusyFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BusyFuzz, CorruptedBusySchedulesAreRejected) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729ULL);
  gen::ContinuousParams params;
  params.num_jobs = 12;
  params.capacity = 2;
  params.horizon = 10;
  const auto inst = gen::random_continuous(rng, params);
  const auto base = busy::greedy_tracking(inst);
  ASSERT_TRUE(core::check_busy_schedule(inst, base));

  // Corruption 1: start a job before its release.
  {
    core::BusySchedule bad = base;
    bad.placements[0].start = inst.job(0).release - 0.5;
    EXPECT_FALSE(core::check_busy_schedule(inst, bad));
  }
  // Corruption 2: start a job too late for its deadline.
  {
    core::BusySchedule bad = base;
    bad.placements[0].start = inst.job(0).latest_start() + 0.5;
    EXPECT_FALSE(core::check_busy_schedule(inst, bad));
  }
  // Corruption 3: unassign a job.
  {
    core::BusySchedule bad = base;
    bad.placements[0].machine = -1;
    EXPECT_FALSE(core::check_busy_schedule(inst, bad));
  }
  // Corruption 4: dump every job on machine 0 (overload with capacity 2 is
  // near-certain for 12 random jobs; skip the rare trial where it stays
  // feasible).
  {
    core::BusySchedule bad = base;
    for (auto& p : bad.placements) p.machine = 0;
    std::string why;
    const bool ok = core::check_busy_schedule(inst, bad, &why);
    if (ok) {
      GTEST_SKIP() << "random instance happened to fit one machine";
    }
    EXPECT_NE(why.find("machine 0"), std::string::npos) << why;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusyFuzz, ::testing::Range(1, 9));

class WeightedFuzz : public ::testing::TestWithParam<int> {};

/// The weighted checker's event sweep against the frozen per-machine peak
/// probe: random machine moves and start shifts of a feasible schedule must
/// draw the same verdict and the same message from both, and the targeted
/// corruptions must be rejected.
TEST_P(WeightedFuzz, CorruptedWeightedSchedulesMatchFrozenVerdicts) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151ULL);
  gen::WeightedParams params;
  params.num_jobs = 40;
  params.capacity = 4;
  params.horizon = 16.0;
  params.max_slack = 0.5;
  const auto inst = gen::random_weighted(rng, params);
  const auto base = busy::schedule_weighted_flexible(inst);
  ASSERT_TRUE(busy::check_weighted_schedule(inst, base));
  const int machines = base.machine_count();

  for (int round = 0; round < 200; ++round) {
    core::BusySchedule bad = base;
    const int moves = static_cast<int>(rng.uniform_int(1, 4));
    for (int k = 0; k < moves; ++k) {
      auto& p = bad.placements[static_cast<std::size_t>(
          rng.uniform_int(0, inst.size() - 1))];
      if (rng.uniform_int(0, 1) == 0) {
        p.machine = static_cast<int>(rng.uniform_int(0, machines));
      } else {
        p.start += rng.uniform_real(-0.5, 0.5);
      }
    }
    std::string why;
    std::string frozen_why;
    const bool ok = busy::check_weighted_schedule(inst, bad, &why);
    EXPECT_EQ(ok, busy::naive::check_weighted_schedule(inst, bad, &frozen_why))
        << why << " vs " << frozen_why;
    EXPECT_EQ(why, frozen_why);
  }

  // Targeted: every job on machine 0 overloads it (40 jobs of width up to
  // 4 on a horizon of 16).
  core::BusySchedule bad = base;
  for (auto& p : bad.placements) p.machine = 0;
  std::string why;
  EXPECT_FALSE(busy::check_weighted_schedule(inst, bad, &why));
  EXPECT_EQ(why, "machine 0 exceeds width capacity");
  bad = base;
  bad.placements[0].machine = -1;
  EXPECT_FALSE(busy::check_weighted_schedule(inst, bad));
  bad = base;
  bad.placements[0].start = inst.job(0).job.release - 0.5;
  EXPECT_FALSE(busy::check_weighted_schedule(inst, bad));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedFuzz, ::testing::Range(1, 9));

}  // namespace
}  // namespace abt
