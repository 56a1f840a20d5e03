// The warm-started FeasibilityNetwork against fresh max-flows: the closing
// passes of solve_minimal_feasible / mw_solve_minimal_feasible and the
// feasible slotted generator must reproduce the frozen rebuild-per-probe
// code in active/naive_baselines.hpp exactly (same open sets, same
// schedules, same instances), and every single probe must answer what a
// fresh flow over the same set answers.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "active/feasibility.hpp"
#include "active/minimal_feasible.hpp"
#include "active/multi_window.hpp"
#include "active/naive_baselines.hpp"
#include "core/rng.hpp"
#include "gen/extended_instances.hpp"
#include "gen/random_instances.hpp"

namespace abt::active {
namespace {

using core::SlotTime;
using core::SlottedInstance;
using core::SlottedJob;

constexpr CloseOrder kOrders[] = {
    CloseOrder::kLeftToRight, CloseOrder::kRightToLeft,
    CloseOrder::kSparsestFirst, CloseOrder::kDensestFirst,
    CloseOrder::kRandom};

/// The campaign's slotted shape: horizon max(12, 2n).
gen::SlottedParams slotted_params(int n, int g, bool unit) {
  gen::SlottedParams params;
  params.num_jobs = n;
  params.capacity = g;
  params.horizon = std::max<SlotTime>(12, 2 * n);
  params.unit_jobs = unit;
  return params;
}

void expect_same(const std::optional<core::ActiveSchedule>& got,
                 const std::optional<core::ActiveSchedule>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!want.has_value()) return;
  EXPECT_EQ(got->active_slots, want->active_slots);
  EXPECT_EQ(got->job_slots, want->job_slots);
}

/// Slot indices of `job` among the sorted `slots`.
std::vector<int> slot_indices(const SlottedJob& job,
                              const std::vector<SlotTime>& slots) {
  std::vector<int> out;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i] > job.release && slots[i] <= job.deadline) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

TEST(FeasibilityNetwork, MinimalFeasibleMatchesFrozenForEveryOrder) {
  for (const bool unit : {false, true}) {
    for (const int n : {8, 12, 24, 48}) {
      for (const int g : {1, 2, 4}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
          core::Rng rng(seed);
          const SlottedInstance inst =
              gen::random_feasible_slotted(rng, slotted_params(n, g, unit));
          for (const CloseOrder order : kOrders) {
            MinimalFeasibleOptions options;
            options.order = order;
            options.seed = seed;
            SCOPED_TRACE(::testing::Message()
                         << "unit=" << unit << " n=" << n << " g=" << g
                         << " seed=" << seed
                         << " order=" << static_cast<int>(order));
            expect_same(solve_minimal_feasible(inst, options),
                        naive::solve_minimal_feasible(inst, options));
          }
        }
      }
    }
  }
}

TEST(FeasibilityNetwork, MinimalFeasibleMatchesFrozenOnUnfilteredInstances) {
  // random_slotted does not filter, so some of these are infeasible; both
  // versions must return nullopt on exactly the same ones.
  int infeasible = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    core::Rng rng(seed);
    gen::SlottedParams params = slotted_params(10, 2, false);
    params.horizon = 12;
    const SlottedInstance inst = gen::random_slotted(rng, params);
    for (const CloseOrder order : kOrders) {
      MinimalFeasibleOptions options;
      options.order = order;
      SCOPED_TRACE(::testing::Message() << "seed=" << seed);
      const auto got = solve_minimal_feasible(inst, options);
      expect_same(got, naive::solve_minimal_feasible(inst, options));
      if (!got.has_value()) ++infeasible;
    }
  }
  EXPECT_GT(infeasible, 0) << "the draw should include infeasible instances";
}

TEST(FeasibilityNetwork, InfeasibleInstancesReturnNullopt) {
  const SlottedInstance two_in_one({{0, 1, 1}, {0, 1, 1}}, 1);
  EXPECT_FALSE(solve_minimal_feasible(two_in_one).has_value());
  const SlottedInstance too_long({{0, 2, 3}}, 4);
  EXPECT_FALSE(solve_minimal_feasible(too_long).has_value());

  const MultiWindowInstance mw({{{{0, 1}, {3, 4}}, 2}, {{{0, 1}}, 1}}, 1);
  EXPECT_FALSE(mw_solve_minimal_feasible(mw).has_value());
  EXPECT_FALSE(naive::mw_solve_minimal_feasible(mw).has_value());
}

TEST(FeasibilityNetwork, MultiWindowMinimalMatchesFrozen) {
  for (const int n : {6, 12, 24, 48}) {
    for (const int g : {1, 2, 4}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        core::Rng rng(seed);
        gen::MultiWindowParams params;
        params.num_jobs = n;
        params.capacity = g;
        const MultiWindowInstance inst = gen::random_multi_window(rng, params);
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " g=" << g << " seed=" << seed);
        const auto got = mw_solve_minimal_feasible(inst);
        expect_same(got, naive::mw_solve_minimal_feasible(inst));
        ASSERT_TRUE(got.has_value());
        std::string why;
        EXPECT_TRUE(mw_check_schedule(inst, *got, &why)) << why;
      }
    }
  }
}

TEST(FeasibilityNetwork, FeasibleSlottedGeneratorMatchesFrozen) {
  const auto expect_frozen = [](const gen::SlottedParams& params,
                                std::uint64_t seed) {
    core::Rng a(seed);
    core::Rng b(seed);
    const SlottedInstance got = gen::random_feasible_slotted(a, params);
    const SlottedInstance want = naive::random_feasible_slotted(b, params);
    EXPECT_EQ(got.jobs(), want.jobs())
        << "unit=" << params.unit_jobs << " n=" << params.num_jobs
        << " g=" << params.capacity << " seed=" << seed;
    EXPECT_EQ(a.engine()(), b.engine()()) << "rng streams diverged";
    return got;
  };
  for (const bool unit : {false, true}) {
    for (const int n : {8, 12, 24, 48}) {
      for (const int g : {1, 2, 4}) {
        for (std::uint64_t seed = 1; seed <= 11; ++seed) {
          expect_frozen(slotted_params(n, g, unit), seed);
        }
      }
    }
  }
  // One machine over the default horizon 2n is saturated: the mean job
  // length exceeds 2, so most of the 60 n + 200 draws overflow the
  // remaining g * horizon units and skip the admission flow.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const gen::SlottedParams params = slotted_params(64, 1, false);
    EXPECT_LT(expect_frozen(params, seed).size(), params.num_jobs);
  }
}

TEST(FeasibilityNetwork, SaturatedGeneratorMatchesFrozenThroughFiller) {
  // Horizon 12 cannot hold 48 jobs: admission runs past 40 n attempts into
  // the unit filler jobs {0, horizon, 1} and then out of its attempt
  // budget. With long rigid jobs (no slack) and few of them, the random
  // draws keep failing while a filler still fits, so fillers are admitted.
  struct Shape {
    int n;
    SlotTime max_length;
    SlotTime max_slack;
  };
  int short_instances = 0;
  int with_filler = 0;
  for (const Shape shape : {Shape{48, 4, 6}, Shape{48, 4, 0}, Shape{4, 12, 0}}) {
    for (const int g : {1, 2, 4}) {
      for (std::uint64_t seed = 1; seed <= 11; ++seed) {
        gen::SlottedParams params = slotted_params(shape.n, g, false);
        params.horizon = 12;
        params.max_length = shape.max_length;
        params.max_slack = shape.max_slack;
        core::Rng a(seed);
        core::Rng b(seed);
        const SlottedInstance got = gen::random_feasible_slotted(a, params);
        const SlottedInstance want = naive::random_feasible_slotted(b, params);
        EXPECT_EQ(got.jobs(), want.jobs())
            << "n=" << shape.n << " max_length=" << shape.max_length
            << " slack=" << shape.max_slack << " g=" << g
            << " seed=" << seed;
        EXPECT_TRUE(is_feasible(got));
        if (got.size() < params.num_jobs) ++short_instances;
        // No slack: a random unit job has a one-slot window, so a job
        // spanning the horizon is a filler.
        if (shape.max_slack == 0 &&
            std::find(got.jobs().begin(), got.jobs().end(),
                      SlottedJob{0, params.horizon, 1}) != got.jobs().end()) {
          ++with_filler;
        }
      }
    }
  }
  EXPECT_GT(short_instances, 0);
  EXPECT_GT(with_filler, 0);
}

TEST(FeasibilityNetwork, EveryProbeAgreesWithAFreshFlow) {
  // Random interleavings of add-job and close probes over a growing
  // instance; each answer is checked against a fresh max-flow over the
  // same job set and open slots, so a probe that left the held flow
  // corrupted (no rollback, a lost unit) shows up on a later probe.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    core::Rng rng(seed);
    const int g = static_cast<int>(rng.uniform_int(1, 3));
    const SlotTime horizon = 14;
    std::vector<SlotTime> slots;
    for (SlotTime t = 1; t <= horizon; ++t) slots.push_back(t);
    FeasibilityNetwork network(static_cast<int>(horizon), g);
    std::vector<SlottedJob> jobs;
    std::vector<char> open(slots.size(), 1);
    const auto open_slots = [&] {
      std::vector<SlotTime> out;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (open[i] != 0) out.push_back(slots[i]);
      }
      return out;
    };
    for (int step = 0; step < 40; ++step) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " step=" << step);
      if (rng.uniform_int(0, 2) != 0) {
        const SlotTime length = rng.uniform_int(1, 4);
        const SlotTime release = rng.uniform_int(0, horizon - length);
        const SlotTime deadline =
            std::min(horizon, release + length + rng.uniform_int(0, 4));
        const SlottedJob job{release, deadline, length};
        std::vector<SlottedJob> trial = jobs;
        trial.push_back(job);
        const bool want =
            is_feasible_with_slots(SlottedInstance(trial, g), open_slots());
        const FeasStatus got =
            network.try_add_job(length, slot_indices(job, slots));
        ASSERT_EQ(got == FeasStatus::kFeasible, want);
        if (want) jobs = std::move(trial);
      } else {
        const int slot =
            static_cast<int>(rng.uniform_int(0, horizon - 1));
        if (open[static_cast<std::size_t>(slot)] == 0) continue;
        open[static_cast<std::size_t>(slot)] = 0;
        const bool want =
            is_feasible_with_slots(SlottedInstance(jobs, g), open_slots());
        const FeasStatus got = network.try_close(slot);
        ASSERT_EQ(got == FeasStatus::kFeasible, want);
        if (!want) open[static_cast<std::size_t>(slot)] = 1;
      }
      ASSERT_EQ(network.num_jobs(), static_cast<int>(jobs.size()));
      for (std::size_t i = 0; i < slots.size(); ++i) {
        ASSERT_EQ(network.is_open(static_cast<int>(i)), open[i] != 0);
      }
    }
  }
}

TEST(FeasibilityNetwork, ClosingAClosedSlotChangesNothing) {
  FeasibilityNetwork network(3, 1);
  ASSERT_EQ(network.try_add_job(1, {0, 1, 2}), FeasStatus::kFeasible);
  EXPECT_EQ(network.try_close(1), FeasStatus::kFeasible);
  EXPECT_EQ(network.try_close(1), FeasStatus::kFeasible);
  EXPECT_FALSE(network.is_open(1));
  EXPECT_EQ(network.try_close(0), FeasStatus::kFeasible);
  EXPECT_EQ(network.try_close(2), FeasStatus::kInfeasible);
  EXPECT_TRUE(network.is_open(2));
}

TEST(FeasibilityNetwork, CancelledProbeRollsBackAndReportsCancelled) {
  // A stop predicate that trips on its k-th poll, for k = 1 (the probe's
  // own poll) up to 4 (the third poll inside the augmentation run): each
  // probe routes 200 units, so it polls every kStopPollPaths of them. After
  // the cancelled probe the network must answer exactly as before it.
  const int units = 200;
  std::vector<int> all(static_cast<std::size_t>(units));
  for (int i = 0; i < units; ++i) all[static_cast<std::size_t>(i)] = i;
  for (int trip_at = 1; trip_at <= 4; ++trip_at) {
    SCOPED_TRACE(::testing::Message() << "trip_at=" << trip_at);
    int polls = 0;
    const std::function<bool()> stop = [&] { return ++polls >= trip_at; };

    FeasibilityNetwork one_job(units, 1);
    EXPECT_EQ(one_job.try_add_job(units, all, stop), FeasStatus::kCancelled);
    EXPECT_EQ(one_job.num_jobs(), 0);
    ASSERT_EQ(one_job.try_add_job(units, all), FeasStatus::kFeasible);
    EXPECT_EQ(one_job.try_add_job(1, all), FeasStatus::kInfeasible);

    // 200 unit jobs over two slots of capacity 200 all land in slot 0;
    // closing it moves every one of them.
    FeasibilityNetwork two_slots(2, units);
    for (int j = 0; j < units; ++j) {
      ASSERT_EQ(two_slots.try_add_job(1, {0, 1}), FeasStatus::kFeasible);
    }
    polls = 0;
    EXPECT_EQ(two_slots.try_close(0, stop), FeasStatus::kCancelled);
    EXPECT_TRUE(two_slots.is_open(0));
    EXPECT_EQ(two_slots.try_close(0), FeasStatus::kFeasible);
    EXPECT_EQ(two_slots.try_add_job(1, {0, 1}), FeasStatus::kInfeasible);
    EXPECT_EQ(two_slots.try_close(1), FeasStatus::kInfeasible);
  }
}

TEST(FeasibilityNetwork, PreCancelledContextReportsCancelled) {
  core::CancelSource source;
  source.cancel();
  const core::RunContext ctx =
      core::RunContext().set_cancel_token(source.token());
  core::Rng rng(3);
  const SlottedInstance inst =
      gen::random_feasible_slotted(rng, slotted_params(24, 2, false));
  for (const SlottedInstance& case_inst : {inst, SlottedInstance({}, 2)}) {
    for (const CloseOrder order : kOrders) {
      MinimalFeasibleOptions options;
      options.order = order;
      options.context = &ctx;
      bool cancelled = false;
      EXPECT_FALSE(solve_minimal_feasible(case_inst, options, &cancelled)
                       .has_value());
      EXPECT_TRUE(cancelled);
      bool naive_cancelled = false;
      EXPECT_FALSE(
          naive::solve_minimal_feasible(case_inst, options, &naive_cancelled)
              .has_value());
      EXPECT_TRUE(naive_cancelled);
    }
  }
}

TEST(FeasibilityNetwork, MidPassCancelStillReturnsAFeasibleSchedule) {
  // Cancel from another thread while a large solve runs. Whenever the
  // cancel lands, the result is either "cancelled before feasibility was
  // established" or a feasible schedule whose open set contains the full
  // pass's (the pass stopped on a prefix of the same order). The closing
  // pass is about a fifth of the solve here, so cancels at random points of
  // it land inside the pass within a few tries whatever the scheduler does.
  core::Rng rng(7);
  const SlottedInstance inst =
      gen::random_feasible_slotted(rng, slotted_params(4000, 4, false));
  const auto t0 = std::chrono::steady_clock::now();
  const auto full = solve_minimal_feasible(inst);
  const double full_us = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  ASSERT_TRUE(full.has_value());
  bool saw_partial = false;
  for (int attempt = 0; attempt < 100 && !saw_partial; ++attempt) {
    core::CancelSource source;
    const core::RunContext ctx =
        core::RunContext().set_cancel_token(source.token());
    MinimalFeasibleOptions options;
    options.context = &ctx;
    bool cancelled = false;
    std::optional<core::ActiveSchedule> got;
    const auto delay = std::chrono::microseconds(
        static_cast<long>(rng.uniform_real(0.0, full_us)));
    std::thread solver(
        [&] { got = solve_minimal_feasible(inst, options, &cancelled); });
    std::this_thread::sleep_for(delay);
    source.cancel();
    solver.join();
    if (!got.has_value()) {
      EXPECT_TRUE(cancelled);
      continue;
    }
    EXPECT_FALSE(cancelled);
    EXPECT_TRUE(core::check_active_schedule(inst, *got));
    EXPECT_TRUE(std::includes(got->active_slots.begin(),
                              got->active_slots.end(),
                              full->active_slots.begin(),
                              full->active_slots.end()));
    saw_partial = got->active_slots != full->active_slots;
  }
  EXPECT_TRUE(saw_partial) << "no cancel landed inside the closing pass";
}

TEST(MultiWindowChecker, ReportsTheLowestOverloadedSlot) {
  // Slots 2 and 5 both carry two units at g = 1; the error names slot 2.
  const MultiWindowInstance inst(
      {{{{0, 6}}, 2}, {{{0, 6}}, 2}}, 1);
  core::ActiveSchedule sched;
  sched.active_slots = {2, 5};
  sched.job_slots = {{2, 5}, {2, 5}};
  std::string why;
  EXPECT_FALSE(mw_check_schedule(inst, sched, &why));
  EXPECT_EQ(why, "slot 2 over capacity");
}

}  // namespace
}  // namespace abt::active
