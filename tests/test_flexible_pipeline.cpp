#include "busy/flexible_pipeline.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "busy/lower_bounds.hpp"
#include "core/assert.hpp"
#include "core/rng.hpp"
#include "core/solver.hpp"
#include "engine/builtin_solvers.hpp"
#include "engine/parallel.hpp"
#include "engine/runner.hpp"
#include "gen/gadgets.hpp"
#include "gen/random_instances.hpp"

namespace abt::busy {
namespace {

using core::ContinuousInstance;

TEST(FlexiblePipeline, IntervalInstancePassesThrough) {
  core::Rng rng(17);
  gen::ContinuousParams params;
  params.num_jobs = 10;
  params.capacity = 2;
  const ContinuousInstance inst = gen::random_continuous(rng, params);
  const auto result = schedule_flexible(inst);
  ASSERT_TRUE(result.dp_exact);
  std::string why;
  EXPECT_TRUE(core::check_busy_schedule(inst, result.schedule, &why)) << why;
  EXPECT_NEAR(result.opt_infinity, core::span_of(inst.forced_intervals()),
              1e-9);
}

TEST(FlexiblePipeline, StartsComeFromTheDp) {
  const ContinuousInstance inst({{0, 10, 5}, {8, 13, 5}}, 1);
  const auto result = schedule_flexible(inst);
  std::string why;
  EXPECT_TRUE(core::check_busy_schedule(inst, result.schedule, &why)) << why;
  EXPECT_NEAR(result.opt_infinity, 8.0, 1e-9);
}

/// Property (section 4.3): the 3-approx pipeline stays within 3x the best
/// lower bound; the profile-charging variants within 4x.
class PipelineSweep : public ::testing::TestWithParam<int> {};

TEST_P(PipelineSweep, AllVariantsFeasibleAndBounded) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 50021ULL);
  for (int trial = 0; trial < 5; ++trial) {
    gen::ContinuousParams params;
    params.num_jobs = static_cast<int>(rng.uniform_int(2, 10));
    params.capacity = static_cast<int>(rng.uniform_int(1, 3));
    params.horizon = 12;
    params.max_slack = 1.5;
    const ContinuousInstance inst = gen::random_continuous(rng, params);

    const BusyLowerBounds lb = busy_lower_bounds(inst);
    const double bound = std::max(lb.mass, lb.span);
    ASSERT_GT(bound, 0.0);

    for (const auto algo :
         {IntervalAlgorithm::kGreedyTracking, IntervalAlgorithm::kTwoTrackPeeling,
          IntervalAlgorithm::kFirstFit, IntervalAlgorithm::kFirstFitByRelease}) {
      const auto result = schedule_flexible(inst, algo);
      ASSERT_TRUE(result.dp_exact);
      std::string why;
      EXPECT_TRUE(core::check_busy_schedule(inst, result.schedule, &why))
          << why;
      const double cost = core::busy_cost(inst, result.schedule);
      EXPECT_GE(cost, bound - 1e-6);
      if (algo == IntervalAlgorithm::kGreedyTracking) {
        // Theorem 5 + exact DP: Sp(B1) <= OPT_inf and the rest <= 2 mass/g.
        EXPECT_LE(cost, result.opt_infinity + 2 * lb.mass + 1e-6)
            << "3-approximation accounting violated";
      } else {
        EXPECT_LE(cost, 4 * std::max(lb.mass, lb.span) + 1e-5)
            << "Theorem 10's factor-4 bound violated";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSweep, ::testing::Range(1, 9));

TEST(FlexiblePipeline, Fig6FamilyStaysWithinThree) {
  const int g = 3;
  const double eps = 0.1;
  const ContinuousInstance inst = gen::fig6_instance(g, eps);
  const auto result = schedule_flexible(inst);
  ASSERT_TRUE(result.dp_exact);
  std::string why;
  EXPECT_TRUE(core::check_busy_schedule(inst, result.schedule, &why)) << why;
  const double opt = gen::fig6_optimal_cost(g, eps);
  const double cost = core::busy_cost(inst, result.schedule);
  EXPECT_LE(cost, 3 * opt + 1e-6);
}

}  // namespace
}  // namespace abt::busy

// The registry's per-instance g = infinity DP: busy/dp-unbounded and the
// three pipelines read one published result per instance.
namespace abt::engine {
namespace {

using core::ProblemInstance;
using core::Solution;

const std::vector<std::string>& dp_solvers() {
  static const std::vector<std::string> names = {
      "busy/pipeline-greedy-tracking", "busy/pipeline-two-track-peeling",
      "busy/pipeline-first-fit", "busy/dp-unbounded"};
  return names;
}

ProblemInstance scenario(const std::string& name, int n, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = name;
  spec.n = n;
  spec.g = 3;
  spec.seed = seed;
  std::string error;
  std::optional<ProblemInstance> inst = make_scenario(spec, &error);
  EXPECT_TRUE(inst.has_value()) << error;
  return inst.value_or(ProblemInstance{});
}

bool published(const ProblemInstance& inst) {
  const std::lock_guard<std::mutex> lock(inst.derived->mutex);
  return inst.derived->value != nullptr;
}

/// Field-for-field equality of two solver rows, wall_ms aside.
void expect_same_row(const Solution& a, const Solution& b) {
  SCOPED_TRACE(a.solver);
  EXPECT_EQ(a.solver, b.solver);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.message, b.message);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.machines, b.machines);
  EXPECT_EQ(a.guarantee, b.guarantee);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.budget_ms, b.budget_ms);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.best_bound, b.best_bound);
  EXPECT_EQ(a.stats, b.stats);
  ASSERT_EQ(a.busy.has_value(), b.busy.has_value());
  if (a.busy.has_value()) {
    ASSERT_EQ(a.busy->placements.size(), b.busy->placements.size());
    for (std::size_t j = 0; j < a.busy->placements.size(); ++j) {
      EXPECT_EQ(a.busy->placements[j].machine, b.busy->placements[j].machine);
      EXPECT_EQ(a.busy->placements[j].start, b.busy->placements[j].start);
    }
  }
  EXPECT_FALSE(a.preemptive.has_value() || b.preemptive.has_value());
}

/// Each DP solver's row on its own fresh instance, so nothing is shared.
std::vector<Solution> fresh_rows(const ProblemInstance& inst) {
  std::vector<Solution> rows;
  for (const std::string& name : dp_solvers()) {
    rows.push_back(shared_registry().run(
        name, core::make_instance(inst.continuous)));
  }
  return rows;
}

TEST(SharedUnboundedDp, RowsMatchFreshInstances) {
  const core::SolverRegistry& registry = shared_registry();
  for (const char* family : {"flexible", "bursty"}) {
    for (const int n : {24, 256}) {
      SCOPED_TRACE(std::string(family) + " n=" + std::to_string(n));
      const ProblemInstance inst = scenario(family, n, 5);
      const std::vector<Solution> expected = fresh_rows(inst);

      // Registration order (a pipeline publishes, dp-unbounded reads) and
      // the reverse (dp-unbounded publishes, the pipelines read).
      const ProblemInstance forward = core::make_instance(inst.continuous);
      const ProblemInstance backward = core::make_instance(inst.continuous);
      for (std::size_t s = 0; s < dp_solvers().size(); ++s) {
        expect_same_row(registry.run(dp_solvers()[s], forward), expected[s]);
      }
      for (std::size_t s = dp_solvers().size(); s-- > 0;) {
        expect_same_row(registry.run(dp_solvers()[s], backward), expected[s]);
      }
      EXPECT_TRUE(published(forward));
      EXPECT_TRUE(published(backward));

      // Copies share the slot; a hand-built instance has none and solves.
      // NOLINTNEXTLINE(performance-unnecessary-copy-initialization): the copy is the subject.
      const ProblemInstance copy = forward;
      EXPECT_EQ(copy.derived, forward.derived);
      ProblemInstance hand;
      hand.continuous = inst.continuous;
      ASSERT_EQ(hand.derived, nullptr);
      for (std::size_t s = 0; s < dp_solvers().size(); ++s) {
        expect_same_row(registry.run(dp_solvers()[s], hand), expected[s]);
      }
    }
  }
}

TEST(SharedUnboundedDp, ConcurrentCellsAgree) {
  const core::SolverRegistry& registry = shared_registry();
  const ProblemInstance base = scenario("flexible", 256, 11);
  const std::vector<Solution> expected = fresh_rows(base);
  ParallelOptions options;
  options.eager_dispatch = true;  // the four cells race for the slot
  for (int round = 0; round < 50; ++round) {
    const ProblemInstance inst = core::make_instance(base.continuous);
    std::vector<Solution> rows(dp_solvers().size());
    parallel_for(
        4, rows.size(),
        [&](std::size_t s) { rows[s] = registry.run(dp_solvers()[s], inst); },
        options);
    for (std::size_t s = 0; s < rows.size(); ++s) {
      expect_same_row(rows[s], expected[s]);
    }
    ASSERT_TRUE(published(inst));
  }
}

TEST(SharedUnboundedDp, CancelledDpPublishesNothing) {
  const core::SolverRegistry& registry = shared_registry();
  const ProblemInstance inst = scenario("flexible", 24, 3);
  const std::vector<Solution> expected = fresh_rows(inst);

  // registry.run declines a cancelled context before the solver starts;
  // calling the solver directly makes the DP itself observe the stop.
  core::CancelSource cancel;
  cancel.cancel();
  core::RunContext ctx;
  ctx.set_cancel_token(cancel.token());
  const core::Solver* dp = registry.find("busy/dp-unbounded");
  ASSERT_NE(dp, nullptr);
  const Solution stopped = dp->run(inst, ctx);
  EXPECT_TRUE(stopped.timed_out);
  EXPECT_FALSE(published(inst));

  const Solution pipeline = registry.run(dp_solvers()[0], inst);
  EXPECT_EQ(pipeline.stat("dp_exact"), 1.0);
  expect_same_row(pipeline, expected[0]);
  EXPECT_TRUE(published(inst));
  expect_same_row(registry.run("busy/dp-unbounded", inst), expected[3]);
}

TEST(SharedUnboundedDp, StaleSlotTripsTheAudit) {
  if (!core::kAuditEnabled) GTEST_SKIP() << "needs -DABT_AUDIT=ON";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ProblemInstance inst = scenario("flexible", 24, 3);
  (void)shared_registry().run(dp_solvers()[0], inst);
  ASSERT_TRUE(published(inst));
  inst.continuous = scenario("flexible", 24, 4).continuous;
  EXPECT_DEATH((void)shared_registry().run("busy/dp-unbounded", inst),
               "published g=inf DP differs");
}

}  // namespace
}  // namespace abt::engine
