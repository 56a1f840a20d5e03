#include "busy/dp_unbounded.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "busy/naive_baselines.hpp"
#include "core/rng.hpp"
#include "core/run_context.hpp"
#include "engine/adapters.hpp"
#include "engine/builtin_solvers.hpp"
#include "engine/runner.hpp"
#include "gen/gadgets.hpp"
#include "gen/random_instances.hpp"
#include "test_util.hpp"

namespace abt::busy {
namespace {

using core::ContinuousInstance;

void expect_valid_solution(const ContinuousInstance& inst,
                           const UnboundedSolution& sol) {
  ASSERT_EQ(sol.starts.size(), static_cast<std::size_t>(inst.size()));
  std::vector<core::Interval> runs;
  for (int j = 0; j < inst.size(); ++j) {
    const auto& job = inst.job(j);
    const double s = sol.starts[static_cast<std::size_t>(j)];
    EXPECT_GE(s, job.release - 1e-9) << "job " << j;
    EXPECT_LE(s, job.latest_start() + 1e-9) << "job " << j;
    runs.push_back({s, s + job.length});
  }
  EXPECT_NEAR(core::span_of(runs), sol.busy_time, 1e-9);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The running-maximum DP against the frozen full-scan one: same starts
/// and busy time to the bit, same memo and interner sizes, same verdict.
void expect_matches_frozen(const ContinuousInstance& inst,
                           const UnboundedOptions& options = {}) {
  const UnboundedSolution fast = solve_unbounded(inst, options);
  const UnboundedSolution frozen = naive::solve_unbounded(inst, options);
  ASSERT_EQ(fast.starts.size(), frozen.starts.size());
  for (std::size_t j = 0; j < fast.starts.size(); ++j) {
    ASSERT_TRUE(same_bits(fast.starts[j], frozen.starts[j]))
        << "job " << j << ": " << fast.starts[j] << " vs " << frozen.starts[j];
  }
  EXPECT_TRUE(same_bits(fast.busy_time, frozen.busy_time))
      << fast.busy_time << " vs " << frozen.busy_time;
  EXPECT_EQ(fast.nodes, frozen.nodes);
  EXPECT_EQ(fast.interned, frozen.interned);
  EXPECT_EQ(fast.exact, frozen.exact);
  EXPECT_EQ(fast.timed_out, frozen.timed_out);
}

ContinuousInstance scenario_instance(const std::string& name, int n, int g,
                                     std::uint64_t seed) {
  engine::ScenarioSpec spec;
  spec.name = name;
  spec.n = n;
  spec.g = g;
  spec.seed = seed;
  const auto inst = engine::make_scenario(spec);
  EXPECT_TRUE(inst.has_value()) << name;
  if (name == "weighted-flexible") {
    return engine::weighted_of(*inst).unweighted();
  }
  return inst->continuous;
}

TEST(DpUnbounded, EmptyInstance) {
  const ContinuousInstance inst({}, 1);
  const auto sol = solve_unbounded(inst);
  EXPECT_DOUBLE_EQ(sol.busy_time, 0.0);
  EXPECT_TRUE(sol.exact);
}

TEST(DpUnbounded, SingleJobCostsItsLength) {
  const ContinuousInstance inst({{2, 9, 3}}, 1);
  const auto sol = solve_unbounded(inst);
  expect_valid_solution(inst, sol);
  EXPECT_NEAR(sol.busy_time, 3.0, 1e-9);
}

TEST(DpUnbounded, OverlappingFlexibleJobsStack) {
  // Two flexible jobs that can fully overlap: cost = max length.
  const ContinuousInstance inst({{0, 10, 4}, {0, 10, 3}}, 1);
  const auto sol = solve_unbounded(inst);
  expect_valid_solution(inst, sol);
  EXPECT_NEAR(sol.busy_time, 4.0, 1e-9);
}

TEST(DpUnbounded, BridgingJobLinksTwoRigidOnes) {
  // Rigid [0,2) and [8,10); flexible length 2 in window [0,10): tucks into
  // either rigid run -> total 4, no bridge needed.
  const ContinuousInstance inst({{0, 2, 2}, {8, 10, 2}, {0, 10, 2}}, 1);
  const auto sol = solve_unbounded(inst);
  expect_valid_solution(inst, sol);
  EXPECT_NEAR(sol.busy_time, 4.0, 1e-9);
}

TEST(DpUnbounded, AnchoredAtLatestStart) {
  // The [5,13) merge example: A window [0,10) p=5, B rigid [8,13) p=5.
  // Optimal: A at [5,10) glued to B -> busy time 8.
  const ContinuousInstance inst({{0, 10, 5}, {8, 13, 5}}, 1);
  const auto sol = solve_unbounded(inst);
  expect_valid_solution(inst, sol);
  EXPECT_NEAR(sol.busy_time, 8.0, 1e-9);
}

TEST(DpUnbounded, FlexibleParksInEarlyRunDespiteLateDeadline) {
  // The case that breaks naive consecutive-grouping DPs: rigid [0,10),
  // rigid [20,21), flexible p=10 window [0,1000) must reuse the *early*
  // run even though its deadline is the latest.
  const ContinuousInstance inst({{0, 10, 10}, {20, 21, 1}, {0, 1000, 10}}, 1);
  const auto sol = solve_unbounded(inst);
  expect_valid_solution(inst, sol);
  EXPECT_NEAR(sol.busy_time, 11.0, 1e-9);
}

TEST(DpUnbounded, IntervalJobsGiveExactlyTheSpan) {
  core::Rng rng(5);
  gen::ContinuousParams params;
  params.num_jobs = 14;
  params.horizon = 18;
  const ContinuousInstance inst = gen::random_continuous(rng, params);
  const auto sol = solve_unbounded(inst);
  EXPECT_NEAR(sol.busy_time, core::span_of(inst.forced_intervals()), 1e-9);
  expect_matches_frozen(inst);
}

TEST(DpUnbounded, Fig9FreezeIsSpanOptimal) {
  const int g = 4;
  const double eps = 0.01;
  const auto flexible = gen::fig9_instance(g, eps);
  const auto adversarial = gen::fig9_adversarial_freeze(g, eps);
  const auto sol = solve_unbounded(flexible);
  ASSERT_TRUE(sol.exact);
  // The adversarial freeze hides every flexible job inside a block, so the
  // DP value must equal its span (the minimum possible).
  EXPECT_NEAR(sol.busy_time, core::span_of(adversarial.forced_intervals()),
              1e-9);
}

TEST(DpUnbounded, FreezeProducesIntervalInstanceWithSameCapacity) {
  const ContinuousInstance inst({{0, 10, 5}, {8, 13, 5}}, 7);
  const auto sol = solve_unbounded(inst);
  const ContinuousInstance frozen = freeze_to_interval_instance(inst, sol);
  EXPECT_EQ(frozen.capacity(), 7);
  EXPECT_TRUE(frozen.all_interval_jobs());
  EXPECT_NEAR(core::span_of(frozen.forced_intervals()), sol.busy_time, 1e-9);
}

TEST(DpUnbounded, ManyIdenticalStragglersStayTractable) {
  // 12 identical flexible jobs spanning three rigid anchors: identical jobs
  // are satisfied all-or-none by any window, so the pending sets stay
  // block-structured and the state count stays tiny.
  std::vector<core::ContinuousJob> jobs;
  for (int k = 0; k < 3; ++k) {
    jobs.push_back({10.0 * k, 10.0 * k + 2, 2.0});  // rigid anchors
  }
  for (int i = 0; i < 12; ++i) {
    jobs.push_back({0.0, 100.0, 1.5});  // identical straddlers
  }
  const ContinuousInstance inst(std::move(jobs), 1);
  const auto sol = solve_unbounded(inst);
  ASSERT_TRUE(sol.exact);
  expect_valid_solution(inst, sol);
  // Straggers tuck inside the 2-wide anchors: cost = 3 anchors only.
  EXPECT_NEAR(sol.busy_time, 6.0, 1e-9);
  EXPECT_LT(sol.nodes, 2000) << "identical jobs must collapse in the state";
  expect_matches_frozen(inst);
}

TEST(DpUnbounded, StateLimitFallsBackToValidUpperBound) {
  std::vector<core::ContinuousJob> jobs;
  core::Rng rng(33);
  for (int i = 0; i < 10; ++i) {
    const double r = rng.uniform_real(0, 10);
    const double p = rng.uniform_real(0.5, 2.0);
    jobs.push_back({r, r + p + rng.uniform_real(0, 4), p});
  }
  const ContinuousInstance inst(std::move(jobs), 1);
  UnboundedOptions options;
  options.state_limit = 1;  // force the fallback
  const auto sol = solve_unbounded(inst, options);
  EXPECT_FALSE(sol.exact);
  expect_valid_solution(inst, sol);  // push-left schedule is still feasible
  const auto exact = solve_unbounded(inst);
  ASSERT_TRUE(exact.exact);
  EXPECT_GE(sol.busy_time, exact.busy_time - 1e-9)
      << "fallback is an upper bound";
  expect_matches_frozen(inst, options);
}

/// Property: exact against full enumeration of integral starts.
class DpVsBrute : public ::testing::TestWithParam<int> {};

TEST_P(DpVsBrute, MatchesBruteForceOnIntegerInstances) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 60013ULL);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 6));
    std::vector<core::ContinuousJob> jobs;
    for (int i = 0; i < n; ++i) {
      const double p = static_cast<double>(rng.uniform_int(1, 4));
      const double r = static_cast<double>(rng.uniform_int(0, 8));
      const double slack = static_cast<double>(rng.uniform_int(0, 5));
      jobs.push_back({r, r + p + slack, p});
    }
    const ContinuousInstance inst(std::move(jobs), 1);
    const double brute = testutil::brute_force_unbounded(inst);
    const auto sol = solve_unbounded(inst);
    ASSERT_TRUE(sol.exact);
    expect_valid_solution(inst, sol);
    EXPECT_NEAR(sol.busy_time, brute, 1e-9)
        << "g=infinity DP must be exact (Theorem 4)";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpVsBrute, ::testing::Range(1, 17));

class DpMatchesFrozen : public ::testing::TestWithParam<const char*> {};

TEST_P(DpMatchesFrozen, GeneratedInstances) {
  for (const int n : {12, 48, 512}) {
    for (const int g : {2, 4}) {
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        SCOPED_TRACE(std::string(GetParam()) + " n=" + std::to_string(n) +
                     " g=" + std::to_string(g) +
                     " seed=" + std::to_string(seed));
        expect_matches_frozen(scenario_instance(GetParam(), n, g, seed));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, DpMatchesFrozen,
                         ::testing::Values("flexible", "bursty",
                                           "weighted-flexible"));

TEST(DpMatchesFrozen, LatestStartRoundingBelowRelease) {
  // 0.3 - 0.2 rounds to just under 0.1: the job's latest start precedes
  // its release, so its expiry has to be the release, not d - p. The
  // window [0, 0.1] ends between the two and must stay live.
  const ContinuousInstance inst({{0.1, 0.3, 0.2},
                                 {0.0, 0.4, 0.1},
                                 {0.0, 1.0, 0.5},
                                 {0.05, 0.6, 0.25},
                                 {0.3, 0.9, 0.2}},
                                2);
  ASSERT_LT(inst.job(0).latest_start(), inst.job(0).release);
  expect_matches_frozen(inst);
}

TEST(DpMatchesFrozen, TouchingWindows) {
  // Rigid runs that touch end to start, with flexible jobs whose
  // obligations land exactly on the shared endpoints.
  const ContinuousInstance inst({{0, 1, 1},
                                 {1, 2, 1},
                                 {2, 3, 1},
                                 {0, 3, 1},
                                 {0.5, 2.5, 1},
                                 {1, 3, 2},
                                 {0, 2, 2}},
                                3);
  expect_matches_frozen(inst);
}

/// A context whose 1 ms budget has already run out.
core::RunContext expired_context() {
  core::RunContext ctx = core::RunContext::with_budget_ms(1.0);
  while (!ctx.out_of_budget()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return ctx;
}

TEST(DpUnbounded, ExpiredContextStopsTheDp) {
  // 46 memo states in all: a poll on the state counter alone never fires.
  const ContinuousInstance inst = scenario_instance("flexible", 2048, 4, 7);
  const core::RunContext ctx = expired_context();
  UnboundedOptions options;
  options.context = &ctx;
  const UnboundedSolution sol = solve_unbounded(inst, options);
  EXPECT_TRUE(sol.timed_out);
  EXPECT_FALSE(sol.exact);
  EXPECT_EQ(sol.nodes, 0) << "stops at the first anchor of the first state";
  expect_valid_solution(inst, sol);
}

TEST(DpUnbounded, LiveContextChangesNothing) {
  const ContinuousInstance inst = scenario_instance("flexible", 512, 4, 7);
  const core::RunContext ctx = core::RunContext::with_budget_ms(60'000.0);
  UnboundedOptions options;
  options.context = &ctx;
  const UnboundedSolution budgeted = solve_unbounded(inst, options);
  const UnboundedSolution free_run = solve_unbounded(inst);
  ASSERT_TRUE(budgeted.exact);
  EXPECT_FALSE(budgeted.timed_out);
  EXPECT_EQ(budgeted.starts, free_run.starts);
  EXPECT_EQ(budgeted.nodes, free_run.nodes);
}

TEST(DpUnbounded, RegistryDeclinesOnAnExpiredBudget) {
  const core::Solution sol = engine::shared_registry().run(
      "busy/dp-unbounded",
      core::make_instance(scenario_instance("flexible", 2048, 4, 7)),
      expired_context());
  EXPECT_FALSE(sol.ok);
  EXPECT_TRUE(sol.timed_out);
  EXPECT_EQ(sol.message, "budget expired before the g=inf DP finished");
}

}  // namespace
}  // namespace abt::busy
