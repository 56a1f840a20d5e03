#include "busy/preemptive.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/assert.hpp"
#include "core/scratch.hpp"
#include "core/sweep.hpp"

namespace abt::busy {

using core::ContinuousInstance;
using core::Interval;
using core::JobId;

namespace {

constexpr double kEps = 1e-9;

/// Sorted disjoint set of the machine-open time, on one flat sorted vector
/// (core::FlatIntervalSet). The std::map predecessor is frozen as
/// naive::MapOpenSet; outputs are bit-exact against it
/// (tests/test_flat_layout.cpp) and against the original full-rescan form
/// (tests/test_preemptive.cpp). kEps here equals FlatIntervalSet's default
/// sliver threshold, so covered_in / free_in filter exactly as before.
using OpenSet = core::FlatIntervalSet;
static_assert(OpenSet::kSliverEps == kEps);

}  // namespace

PreemptiveUnboundedSolution solve_preemptive_unbounded(
    const ContinuousInstance& inst) {
  ABT_ASSERT(inst.structurally_valid(), "invalid instance");
  PreemptiveUnboundedSolution out;

  std::vector<JobId> order(static_cast<std::size_t>(inst.size()));
  std::iota(order.begin(), order.end(), JobId{0});
  std::sort(order.begin(), order.end(), [&](JobId a, JobId b) {
    return inst.job(a).deadline < inst.job(b).deadline;
  });

  OpenSet open;
  for (JobId j : order) {
    const core::ContinuousJob& job = inst.job(j);
    const Interval window{job.release, job.deadline};
    double deficit = job.length - open.measure_in(window);
    if (deficit <= kEps) continue;
    // Open the *latest* free time inside the window (lazy activation: later
    // jobs all have later deadlines, so late time is most reusable).
    const std::vector<Interval> gaps = open.free_in(window);
    for (auto it = gaps.rbegin(); it != gaps.rend() && deficit > kEps; ++it) {
      const double take = std::min(deficit, it->length());
      open.insert({it->hi - take, it->hi});
      deficit -= take;
    }
    ABT_ASSERT(deficit <= kEps, "window shorter than job length");
  }

  out.open = open.intervals();
  out.busy_time = core::span_of(out.open);

  // Build the schedule: every job takes the latest `p_j` units of
  // U ∩ window; with unbounded capacity a single machine hosts everything.
  out.schedule.pieces.assign(static_cast<std::size_t>(inst.size()), {});
  for (JobId j = 0; j < inst.size(); ++j) {
    const core::ContinuousJob& job = inst.job(j);
    double need = job.length;
    const std::vector<Interval> available =
        open.covered_in({job.release, job.deadline});
    for (auto it = available.rbegin(); it != available.rend() && need > kEps;
         ++it) {
      const double take = std::min(need, it->length());
      out.schedule.pieces[static_cast<std::size_t>(j)].push_back(
          {0, {it->hi - take, it->hi}});
      need -= take;
    }
    ABT_ASSERT(need <= 1e-6, "open set must cover every job's demand");
    std::reverse(out.schedule.pieces[static_cast<std::size_t>(j)].begin(),
                 out.schedule.pieces[static_cast<std::size_t>(j)].end());
  }
  return out;
}

PreemptiveBoundedSolution solve_preemptive_bounded(
    const ContinuousInstance& inst) {
  const PreemptiveUnboundedSolution unbounded =
      solve_preemptive_unbounded(inst);

  PreemptiveBoundedSolution out;
  out.opt_infinity = unbounded.busy_time;
  out.schedule.pieces.assign(static_cast<std::size_t>(inst.size()), {});

  // Interesting intervals of the unbounded schedule: cut at every piece
  // endpoint; inside one cell the set of running jobs is fixed.
  std::vector<double> points;
  for (JobId j = 0; j < inst.size(); ++j) {
    for (const auto& piece :
         unbounded.schedule.pieces[static_cast<std::size_t>(j)]) {
      points.push_back(piece.run.lo);
      points.push_back(piece.run.hi);
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end(),
                           [](double a, double b) { return std::abs(a - b) < kEps; }),
               points.end());

  // Non-degenerate cells with their midpoints (ascending). A piece covers
  // a contiguous run of cells, so instead of rescanning every job's pieces
  // per cell (the old O(cells * pieces) loop), each piece locates its cell
  // range with two binary searches on the midpoints; iterating jobs in id
  // order keeps every cell's running list in ascending job order, exactly
  // as the per-cell scan produced it.
  std::vector<Interval> cells;
  std::vector<double> mids;
  for (std::size_t c = 0; c + 1 < points.size(); ++c) {
    const Interval cell{points[c], points[c + 1]};
    if (cell.length() <= kEps) continue;
    cells.push_back(cell);
    mids.push_back(cell.lo + cell.length() / 2);
  }
  // Per-cell running lists in CSR form on arena scratch (flat counts /
  // offsets / ids instead of a vector-of-vectors): the buffers are bump
  // allocations a worker thread reuses across trials, and the fill order
  // (jobs ascending, pieces in order) reproduces the per-cell lists of the
  // nested-vector predecessor element for element.
  core::MonotonicArena& arena = core::thread_arena();
  const core::ArenaScope scope(arena);
  std::size_t num_pieces = 0;
  for (JobId j = 0; j < inst.size(); ++j) {
    num_pieces += unbounded.schedule.pieces[static_cast<std::size_t>(j)].size();
  }
  struct PieceCells {
    std::size_t first;
    std::size_t last;
    JobId job;
  };
  const std::span<PieceCells> ranges = arena.alloc<PieceCells>(num_pieces);
  const std::span<int> counts = arena.alloc<int>(cells.size());
  std::fill(counts.begin(), counts.end(), 0);
  std::size_t nr = 0;
  for (JobId j = 0; j < inst.size(); ++j) {
    for (const auto& piece :
         unbounded.schedule.pieces[static_cast<std::size_t>(j)]) {
      // Cells whose midpoint lies in [run.lo, run.hi) — the same predicate
      // the per-cell scan evaluated.
      const std::size_t first = core::flat_lower_bound(
          mids.data(), mids.size(), piece.run.lo);
      const std::size_t last = core::flat_lower_bound(
          mids.data(), mids.size(), piece.run.hi);
      ranges[nr++] = {first, last, j};
      for (std::size_t c = first; c < last; ++c) ++counts[c];
    }
  }
  const std::span<std::size_t> offsets =
      arena.alloc<std::size_t>(cells.size() + 1);
  offsets[0] = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    offsets[c + 1] = offsets[c] + static_cast<std::size_t>(counts[c]);
  }
  const std::span<JobId> ids = arena.alloc<JobId>(offsets[cells.size()]);
  const std::span<std::size_t> cursor =
      arena.alloc<std::size_t>(cells.size());
  std::copy(offsets.begin(), offsets.end() - 1, cursor.begin());
  for (std::size_t r = 0; r < nr; ++r) {
    for (std::size_t c = ranges[r].first; c < ranges[r].last; ++c) {
      ids[cursor[c]++] = ranges[r].job;
    }
  }
  // Cells are dealt in ascending order, so each job's pieces arrive in
  // start order: a piece on the same machine that starts where the job's
  // last piece ends extends it (cosmetic; keeps piece counts linear).
  for (std::size_t c = 0; c < cells.size(); ++c) {
    // Deal onto ceil(count/g) machines, filling g at a time: at most one
    // machine per cell is below capacity (charged to the span bound).
    for (std::size_t idx = 0; idx + offsets[c] < offsets[c + 1]; ++idx) {
      const int machine = static_cast<int>(idx) / inst.capacity();
      auto& pieces =
          out.schedule.pieces[static_cast<std::size_t>(ids[offsets[c] + idx])];
      if (!pieces.empty() && pieces.back().machine == machine &&
          std::abs(pieces.back().run.hi - cells[c].lo) < kEps) {
        pieces.back().run.hi = cells[c].hi;
      } else {
        pieces.push_back({machine, cells[c]});
      }
    }
  }

  out.busy_time = core::busy_cost(inst, out.schedule);
  return out;
}

}  // namespace abt::busy
