#include "busy/weighted.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "busy/first_fit.hpp"
#include "busy/naive_baselines.hpp"
#include "core/rng.hpp"
#include "gen/extended_instances.hpp"
#include "gen/random_instances.hpp"

namespace abt::busy {
namespace {

using core::ContinuousJob;

WeightedInstance make(std::vector<std::tuple<double, double, int>> spec,
                      int g) {
  std::vector<WeightedJob> jobs;
  for (const auto& [lo, hi, w] : spec) {
    jobs.push_back({{lo, hi, hi - lo}, w});
  }
  return WeightedInstance(std::move(jobs), g);
}

TEST(Weighted, StructuralValidation) {
  std::string why;
  EXPECT_FALSE(make({{0, 1, 5}}, 4).structurally_valid(&why))
      << "width above g";
  EXPECT_FALSE(make({{0, 1, 0}}, 4).structurally_valid());
  EXPECT_TRUE(make({{0, 1, 4}}, 4).structurally_valid());
}

TEST(Weighted, MassBoundWeighsByWidth) {
  const auto inst = make({{0, 2, 3}, {0, 2, 1}}, 4);
  EXPECT_DOUBLE_EQ(inst.mass_lower_bound(), (3 * 2 + 1 * 2) / 4.0);
  EXPECT_DOUBLE_EQ(inst.span_lower_bound(), 2.0);
}

TEST(Weighted, CheckerEnforcesCumulativeWidth) {
  const auto inst = make({{0, 1, 2}, {0, 1, 2}, {0, 1, 1}}, 4);
  core::BusySchedule sched;
  sched.placements = {{0, 0.0}, {0, 0.0}, {0, 0.0}};
  EXPECT_FALSE(check_weighted_schedule(inst, sched)) << "width 5 > 4";
  sched.placements = {{0, 0.0}, {0, 0.0}, {1, 0.0}};
  std::string why;
  EXPECT_TRUE(check_weighted_schedule(inst, sched, &why)) << why;
}

TEST(Weighted, UnitWidthFirstFitMatchesPlainFirstFit) {
  core::Rng rng(11);
  gen::ContinuousParams params;
  params.num_jobs = 20;
  params.capacity = 3;
  const auto plain = gen::random_continuous(rng, params);
  std::vector<WeightedJob> jobs;
  for (const auto& j : plain.jobs()) jobs.push_back({j, 1});
  const WeightedInstance weighted(std::move(jobs), plain.capacity());

  const double plain_cost = core::busy_cost(plain, first_fit(plain));
  const auto wsched = weighted_first_fit(weighted);
  EXPECT_TRUE(check_weighted_schedule(weighted, wsched));
  EXPECT_NEAR(core::busy_cost(plain, wsched), plain_cost, 1e-9)
      << "width-1 model must reduce to the standard one";
}

TEST(Weighted, WideJobsNeverShareCapacity) {
  // Three overlapping wide jobs (w = 3 of g = 4): three machines.
  const auto inst = make({{0, 2, 3}, {0, 2, 3}, {0, 2, 3}}, 4);
  const auto sched = narrow_wide_split(inst);
  EXPECT_TRUE(check_weighted_schedule(inst, sched));
  EXPECT_EQ(sched.machine_count(), 3);
}

TEST(Weighted, DisjointWideJobsShareAMachine) {
  const auto inst = make({{0, 1, 3}, {2, 3, 3}, {4, 5, 3}}, 4);
  const auto sched = narrow_wide_split(inst);
  EXPECT_TRUE(check_weighted_schedule(inst, sched));
  EXPECT_EQ(sched.machine_count(), 1);
}

TEST(Weighted, NarrowJobsPackByWidth) {
  // Four overlapping narrow jobs of width 2, g = 4: two per machine.
  const auto inst = make({{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2}}, 4);
  const auto sched = narrow_wide_split(inst);
  EXPECT_TRUE(check_weighted_schedule(inst, sched));
  EXPECT_EQ(sched.machine_count(), 2);
}

TEST(Weighted, ExactBeatsOrMatchesHeuristics) {
  const auto inst =
      make({{0, 2, 2}, {1, 3, 2}, {0, 3, 1}, {2, 4, 3}, {0, 1, 1}}, 4);
  const auto exact = solve_exact_weighted(inst);
  ASSERT_TRUE(exact.has_value());
  EXPECT_TRUE(check_weighted_schedule(inst, *exact));
  const double opt = core::busy_cost(inst.unweighted(), *exact);
  const double ff = core::busy_cost(inst.unweighted(), weighted_first_fit(inst));
  const double nw = core::busy_cost(inst.unweighted(), narrow_wide_split(inst));
  EXPECT_LE(opt, ff + 1e-9);
  EXPECT_LE(opt, nw + 1e-9);
  EXPECT_GE(opt, std::max(inst.mass_lower_bound(), 0.0) - 1e-9);
}

/// Property (Khandekar et al. [9]): the narrow/wide split stays within 5x
/// the exact optimum; width-aware FIRSTFIT stays feasible; both respect the
/// weighted lower bounds.
class WeightedRandom : public ::testing::TestWithParam<int> {};

TEST_P(WeightedRandom, FactorsAgainstExactOnSmallInstances) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 35742ULL + 3);
  for (int trial = 0; trial < 8; ++trial) {
    const int g = static_cast<int>(rng.uniform_int(2, 5));
    const int n = static_cast<int>(rng.uniform_int(2, 8));
    std::vector<WeightedJob> jobs;
    for (int i = 0; i < n; ++i) {
      const double len = rng.uniform_real(0.5, 3.0);
      const double lo = rng.uniform_real(0.0, 8.0);
      jobs.push_back({{lo, lo + len, len},
                      static_cast<int>(rng.uniform_int(1, g))});
    }
    const WeightedInstance inst(std::move(jobs), g);
    ASSERT_TRUE(inst.structurally_valid());

    const auto exact = solve_exact_weighted(inst);
    ASSERT_TRUE(exact.has_value());
    const double opt = core::busy_cost(inst.unweighted(), *exact);

    const auto ff = weighted_first_fit(inst);
    const auto nw = narrow_wide_split(inst);
    std::string why;
    EXPECT_TRUE(check_weighted_schedule(inst, ff, &why)) << why;
    EXPECT_TRUE(check_weighted_schedule(inst, nw, &why)) << why;
    EXPECT_LE(core::busy_cost(inst.unweighted(), nw), 5 * opt + 1e-6)
        << "narrow/wide split is 5-approximate";
    EXPECT_GE(core::busy_cost(inst.unweighted(), ff), opt - 1e-6);
    const double lb =
        std::max(inst.mass_lower_bound(), inst.span_lower_bound());
    EXPECT_GE(opt, lb - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedRandom, ::testing::Range(1, 9));

TEST(Weighted, FlexiblePipelineFeasible) {
  core::Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    const int g = 4;
    std::vector<WeightedJob> jobs;
    for (int i = 0; i < 10; ++i) {
      const double len = rng.uniform_real(0.5, 2.0);
      const double lo = rng.uniform_real(0.0, 8.0);
      const double slack = rng.uniform_real(0.0, 2.0);
      jobs.push_back({{lo, lo + len + slack, len},
                      static_cast<int>(rng.uniform_int(1, g))});
    }
    const WeightedInstance inst(std::move(jobs), g);
    const auto sched = schedule_weighted_flexible(inst);
    std::string why;
    EXPECT_TRUE(check_weighted_schedule(inst, sched, &why)) << why;
  }
}

// ---------------------------------------------------------------------------
// Equivalence: the OccupancyIndex-backed weighted solvers must reproduce the
// frozen copy-and-probe implementations (busy/naive_baselines.hpp)
// placement for placement, bit for bit.

void expect_same_placements(const core::BusySchedule& fast,
                            const core::BusySchedule& frozen) {
  ASSERT_EQ(fast.placements.size(), frozen.placements.size());
  for (std::size_t j = 0; j < fast.placements.size(); ++j) {
    EXPECT_EQ(fast.placements[j].machine, frozen.placements[j].machine)
        << "job " << j;
    EXPECT_EQ(fast.placements[j].start, frozen.placements[j].start)
        << "job " << j;
  }
}

/// Shaped like the campaign's `weighted` / `weighted-flexible` scenarios
/// (horizon 10 + n/4).
WeightedInstance random_instance(std::uint64_t seed, int n, int g,
                                 double slack) {
  core::Rng rng(seed);
  gen::WeightedParams params;
  params.num_jobs = n;
  params.capacity = g;
  params.horizon = 10.0 + n / 4.0;
  params.max_slack = slack;
  return gen::random_weighted(rng, params);
}

class WeightedEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  [[nodiscard]] int n() const { return std::get<0>(GetParam()); }
  [[nodiscard]] int g() const { return std::get<1>(GetParam()); }
  /// The frozen path is O(n M k^2): fewer seeds at the largest size.
  [[nodiscard]] int seeds() const { return n() >= 1024 ? 2 : 6; }
  [[nodiscard]] std::uint64_t seed(int s) const {
    return static_cast<std::uint64_t>(s * 7919 + n() * 31 + g());
  }
};

TEST_P(WeightedEquivalence, FirstFitIdenticalToFrozen) {
  for (int s = 0; s < seeds(); ++s) {
    const auto inst = random_instance(seed(s), n(), g(), 0.0);
    const auto sched = weighted_first_fit(inst);
    expect_same_placements(sched, naive::weighted_first_fit(inst));
    EXPECT_TRUE(check_weighted_schedule(inst, sched));
  }
}

TEST_P(WeightedEquivalence, NarrowWideIdenticalToFrozen) {
  for (int s = 0; s < seeds(); ++s) {
    const auto inst = random_instance(seed(s), n(), g(), 0.0);
    const auto sched = narrow_wide_split(inst);
    expect_same_placements(sched, naive::narrow_wide_split(inst));
    EXPECT_TRUE(check_weighted_schedule(inst, sched));
  }
}

TEST_P(WeightedEquivalence, FlexibleIdenticalToFrozen) {
  for (int s = 0; s < seeds(); ++s) {
    const auto inst = random_instance(seed(s), n(), g(), 1.0);
    const auto sched = schedule_weighted_flexible(inst);
    expect_same_placements(sched, naive::schedule_weighted_flexible(inst));
    EXPECT_TRUE(check_weighted_schedule(inst, sched));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, WeightedEquivalence,
                         ::testing::Combine(::testing::Values(16, 128, 1024),
                                            ::testing::Values(2, 4, 8)));

/// Hand cases at the fit test's edges, each against the frozen path.
TEST(WeightedEquivalence, HandCasesAtTheEdges) {
  struct Case {
    const char* what;
    WeightedInstance inst;
    int machines;  ///< Expected weighted_first_fit machine count.
  };
  const std::vector<Case> cases = {
      {"touching width-g runs share a machine",
       make({{0, 1, 4}, {1, 2, 4}, {2, 3, 4}}, 4), 1},
      {"overlapping width-g runs never share",
       make({{0, 2, 4}, {1, 3, 4}, {2.5, 4, 4}}, 4), 2},
      {"width-g run fits beside touching narrow runs",
       make({{0, 1, 1}, {0, 1, 3}, {1, 3, 4}, {3, 4, 2}, {3, 4, 2}}, 4), 1},
      {"zero-length jobs add no load",
       make({{0, 2, 4}, {1, 1, 4}, {2, 2, 4}, {0, 0, 4}}, 4), 1},
      {"only zero-length jobs", make({{1, 1, 2}, {1, 1, 2}, {3, 3, 2}}, 2),
       1},
      {"rounded sums overlap by one ulp",
       make({{0.1, 0.1 + 0.2, 2}, {0.3, 0.5, 2}}, 2), 2},
      {"a gap of one width unit", make({{0, 4, 3}, {1, 2, 1}, {2, 3, 2}}, 4),
       2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const auto ff = weighted_first_fit(c.inst);
    expect_same_placements(ff, naive::weighted_first_fit(c.inst));
    EXPECT_EQ(ff.machine_count(), c.machines);
    EXPECT_TRUE(check_weighted_schedule(c.inst, ff));
    const auto nw = narrow_wide_split(c.inst);
    expect_same_placements(nw, naive::narrow_wide_split(c.inst));
    EXPECT_TRUE(check_weighted_schedule(c.inst, nw));
  }
}

// ---------------------------------------------------------------------------
// Checker: the event sweep must reach the frozen checker's verdict and
// message on every edge case.

void expect_verdict(const WeightedInstance& inst,
                    const core::BusySchedule& sched, bool feasible,
                    double eps = 1e-9) {
  std::string why;
  std::string frozen_why;
  EXPECT_EQ(check_weighted_schedule(inst, sched, &why, eps), feasible) << why;
  EXPECT_EQ(naive::check_weighted_schedule(inst, sched, &frozen_why, eps),
            feasible);
  EXPECT_EQ(why, frozen_why);
}

TEST(WeightedChecker, TouchingRunsNeverStack) {
  const auto inst = make({{0, 1, 4}, {1, 2, 4}, {2, 3, 4}}, 4);
  core::BusySchedule sched;
  sched.placements = {{0, 0.0}, {0, 1.0}, {0, 2.0}};
  expect_verdict(inst, sched, true);
  // Without the eps shrink the runs meet exactly: an end and a start share
  // a coordinate, and the end must be swept first.
  expect_verdict(inst, sched, true, /*eps=*/0.0);
}

TEST(WeightedChecker, OverlapWithinEpsIsForgiven) {
  // The checker shrinks every run by eps at its end.
  const auto inst = make({{0, 1, 4}, {1 - 1e-10, 2 - 1e-10, 4}}, 4);
  core::BusySchedule sched;
  sched.placements = {{0, 0.0}, {0, 1 - 1e-10}};
  expect_verdict(inst, sched, true);
  const auto deep = make({{0, 1, 4}, {0.5, 1.5, 4}}, 4);
  sched.placements = {{0, 0.0}, {0, 0.5}};
  expect_verdict(deep, sched, false);
}

TEST(WeightedChecker, DegenerateRunsCarryNoWidth) {
  // Zero-length and sub-eps jobs inside a full-width run: they cover no
  // point once shrunk, so the machine stays within g.
  const auto inst =
      make({{0, 2, 4}, {1, 1, 4}, {0.5, 0.5 + 1e-10, 4}, {2, 2, 4}}, 4);
  core::BusySchedule sched;
  sched.placements = {{0, 0.0}, {0, 1.0}, {0, 0.5}, {0, 2.0}};
  expect_verdict(inst, sched, true);
  // Unshrunk, the sub-eps job is a real run and overloads the machine.
  expect_verdict(inst, sched, false, /*eps=*/0.0);
}

TEST(WeightedChecker, WidthGOverlapNamesTheLowestMachine) {
  const auto inst =
      make({{0, 2, 4}, {1, 3, 4}, {0, 2, 2}, {0, 2, 3}, {5, 6, 1}}, 4);
  core::BusySchedule sched;
  sched.placements = {{3, 0.0}, {3, 1.0}, {1, 0.0}, {1, 0.0}, {0, 5.0}};
  expect_verdict(inst, sched, false);
  std::string why;
  EXPECT_FALSE(check_weighted_schedule(inst, sched, &why));
  EXPECT_EQ(why, "machine 1 exceeds width capacity");
  sched.placements[3].machine = 2;
  expect_verdict(inst, sched, false);
  sched.placements[1].machine = 0;
  expect_verdict(inst, sched, true);
}

TEST(WeightedChecker, WindowAndAssignmentErrorsComeFirst) {
  const auto inst = make({{0, 2, 4}, {0, 2, 4}, {3, 4, 1}}, 4);
  core::BusySchedule sched;
  sched.placements = {{0, 0.0}, {0, 0.0}, {-1, 3.0}};
  expect_verdict(inst, sched, false);
  sched.placements[2] = {0, 3.5};
  expect_verdict(inst, sched, false);
}

// ---------------------------------------------------------------------------
// Exact search: the per-machine run stacks must not change the search. Node
// counts and optimal costs for ten fixed n = 12 instances, recorded from
// the rescanning implementation they replaced.

TEST(WeightedExact, NodesAndCostsPinned) {
  struct Pin {
    int seed;
    long nodes;
    double cost;
  };
  const std::vector<Pin> pins = {
      {1, 734, 0x1.12c825880fb83p+4},     // 17.173863917817936
      {2, 1341, 0x1.2e86a8efa247p+4},     // 18.907875953740984
      {3, 4405, 0x1.6a1c6b7275065p+4},    // 22.631938407037882
      {4, 960, 0x1.7f506bfe89ec8p+4},     // 23.957134241382647
      {5, 12785, 0x1.205fd94b0bb6ap+4},   // 18.023400586268885
      {6, 672, 0x1.6dda2611dd26cp+4},     // 22.865758962422134
      {7, 4118, 0x1.58fd61be6491ap+4},    // 21.561860793802317
      {8, 1814, 0x1.44ea2e763a44ep+4},    // 20.307173215700736
      {9, 298, 0x1.199ef6b37d0d3p+4},     // 17.601309491278538
      {10, 23483, 0x1.459ddb6a3e2cep+4},  // 20.351039328585834
  };
  for (const Pin& pin : pins) {
    core::Rng rng(static_cast<std::uint64_t>(pin.seed));
    gen::WeightedParams params;
    params.num_jobs = 12;
    params.capacity = 3;
    params.horizon = 9.0;
    const auto inst = gen::random_weighted(rng, params);
    const auto result = solve_exact_weighted_anytime(inst);
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->proven_optimal);
    EXPECT_EQ(result->nodes, pin.nodes) << "seed " << pin.seed;
    EXPECT_EQ(core::busy_cost(inst.unweighted(), result->schedule), pin.cost)
        << "seed " << pin.seed;
    EXPECT_TRUE(check_weighted_schedule(inst, result->schedule));
  }
}

}  // namespace
}  // namespace abt::busy
