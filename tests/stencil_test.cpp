// pdc::stencil — tile map / activity tracking units, the engine's
// skip-soundness contract (skipping is bit-identical to the full sweep),
// and the heat workload's cross-engine identity: the same options must
// produce the same iteration count, residual, and field on the
// sequential, threaded, and message-passing engines.

#include "pdc/stencil/engine.hpp"
#include "pdc/stencil/heat.hpp"
#include "pdc/stencil/tile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "pdc/life/engine.hpp"
#include "pdc/life/grid.hpp"
#include "pdc/mp/comm.hpp"
#include "pdc/mp/transport.hpp"

namespace ps = pdc::stencil;
namespace pl = pdc::life;
namespace mp = pdc::mp;

// ---------------------------------------------------------------- tiles ---

TEST(TileMap, CutsDomainIntoHalfOpenRectangles) {
  const ps::TileMap tm(10, 7, 4, 3);
  EXPECT_EQ(tm.tiles_y(), 3u);
  EXPECT_EQ(tm.tiles_x(), 3u);
  EXPECT_EQ(tm.count(), 9u);

  const ps::TileBounds first = tm.bounds(0);
  EXPECT_EQ(first.r0, 0u);
  EXPECT_EQ(first.r1, 4u);
  EXPECT_EQ(first.c0, 0u);
  EXPECT_EQ(first.c1, 3u);

  // Bottom-right tile is the ragged remainder.
  const ps::TileBounds last = tm.bounds(tm.count() - 1);
  EXPECT_EQ(last.r0, 8u);
  EXPECT_EQ(last.r1, 10u);
  EXPECT_EQ(last.c0, 6u);
  EXPECT_EQ(last.c1, 7u);
  EXPECT_EQ(last.rows(), 2u);
  EXPECT_EQ(last.cols(), 1u);

  // Every unit is covered exactly once.
  std::vector<int> hits(10 * 7, 0);
  for (std::size_t t = 0; t < tm.count(); ++t) {
    const auto b = tm.bounds(t);
    for (std::size_t r = b.r0; r < b.r1; ++r)
      for (std::size_t c = b.c0; c < b.c1; ++c) ++hits[r * 7 + c];
  }
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(TileMap, ClampsOversizedTilesAndValidates) {
  const ps::TileMap tm(4, 4, 100, 100);
  EXPECT_EQ(tm.count(), 1u);
  EXPECT_EQ(tm.tile_h(), 4u);
  EXPECT_THROW(ps::TileMap(0, 4, 1, 1), std::invalid_argument);
  EXPECT_THROW(ps::TileMap(4, 4, 0, 1), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(tm.bounds(1)), std::out_of_range);
}

TEST(ActivityMap, StartsAllChangedSoFirstAdvanceActivatesEverything) {
  const ps::TileMap tm(9, 9, 3, 3);
  ps::ActivityMap act(tm, false, false);
  act.advance();
  EXPECT_EQ(act.active_count(), tm.count());
}

TEST(ActivityMap, DilatesChangedTilesToEightNeighbors) {
  const ps::TileMap tm(9, 9, 3, 3);  // 3x3 tiles
  ps::ActivityMap act(tm, false, false);
  act.advance();  // consume the initial all-changed state
  // Nothing changed -> everything sleeps.
  act.advance();
  EXPECT_EQ(act.active_count(), 0u);
  // One corner tile changed -> it and its 3 in-bounds neighbors wake.
  act.mark_changed(tm.index(0, 0), true);
  act.advance();
  EXPECT_EQ(act.active_count(), 4u);
  EXPECT_TRUE(act.active()[tm.index(0, 0)]);
  EXPECT_TRUE(act.active()[tm.index(0, 1)]);
  EXPECT_TRUE(act.active()[tm.index(1, 0)]);
  EXPECT_TRUE(act.active()[tm.index(1, 1)]);
}

TEST(ActivityMap, WrapDilatesAcrossEdges) {
  const ps::TileMap tm(9, 9, 3, 3);
  ps::ActivityMap act(tm, true, true);
  act.advance();
  act.mark_changed(tm.index(0, 0), true);
  act.advance();
  // Torus: the corner's 8 neighbors wrap -> 9 active tiles (all of a 3x3
  // tile grid).
  EXPECT_EQ(act.active_count(), 9u);
}

TEST(ActivityMap, ExternalFlagsReplaceRowWrapForStrips) {
  const ps::TileMap tm(3, 9, 3, 3);  // one tile row, three tile columns
  ps::ActivityMap act(tm, false, false);
  act.advance();
  act.advance();
  EXPECT_EQ(act.active_count(), 0u);
  // Neighbor rank reports its edge tile column 2 changed: our tiles 1
  // and 2 wake (8-neighbor dilation from above), tile 0 stays asleep.
  const std::uint8_t above[3] = {0, 0, 1};
  act.advance(above, nullptr);
  EXPECT_EQ(act.active_count(), 2u);
  EXPECT_FALSE(act.active()[0]);
  EXPECT_TRUE(act.active()[1]);
  EXPECT_TRUE(act.active()[2]);
}

TEST(ActivityMap, CopyEdgeChangedSnapshotsBeforeAdvanceClears) {
  const ps::TileMap tm(6, 6, 3, 3);  // 2x2 tiles
  ps::ActivityMap act(tm, false, false);
  act.advance();
  act.mark_changed(tm.index(0, 1), true);
  act.mark_changed(tm.index(1, 0), true);
  std::uint8_t top[2], bottom[2];
  act.copy_edge_changed(true, top);
  act.copy_edge_changed(false, bottom);
  EXPECT_EQ(top[0], 0);
  EXPECT_EQ(top[1], 1);
  EXPECT_EQ(bottom[0], 1);
  EXPECT_EQ(bottom[1], 0);
}

// --------------------------------------------------------------- options ---

TEST(StencilOptions, ValidatesQuiesceAgainstConvergence) {
  ps::HeatField f(8, 8);
  ps::HeatOptions opt;
  opt.converge_eps = 1e-4;
  opt.quiesce_eps = 1e-3;  // would hide exactly the residual we wait for
  EXPECT_THROW(ps::heat_relax(f, opt), std::invalid_argument);
  opt.quiesce_eps = -1.0;
  EXPECT_THROW(ps::heat_relax(f, opt), std::invalid_argument);
  opt.quiesce_eps = 0.0;
  opt.tile_rows = 0;
  EXPECT_THROW(ps::heat_relax(f, opt), std::invalid_argument);
}

// --------------------------------------- Life on the stencil engine ------

using Shape = std::pair<std::size_t, std::size_t>;
constexpr Shape kShapes[] = {{1, 1},  {1, 130}, {17, 1},  {3, 63},
                             {8, 64}, {5, 65},  {33, 29}, {6, 200}};

class LifeSkipEquivalence
    : public ::testing::TestWithParam<std::tuple<pl::Boundary, int>> {};

// Tiny tiles (2 rows x 1 word) on awkward shapes: skipping ON must stay
// bit-identical to the full sweep AND to the byte-grid oracle, on all
// three engines. This is the skip-soundness theorem, exercised.
TEST_P(LifeSkipEquivalence, SkippingIsBitIdenticalAcrossEngines) {
  const auto [boundary, gens] = GetParam();
  pl::EngineOptions skip_on;
  skip_on.tile_rows = 2;
  skip_on.tile_words = 1;
  pl::EngineOptions skip_off = skip_on;
  skip_off.skip_quiescent = false;

  for (const auto& [rows, cols] : kShapes) {
    const pl::Grid start = pl::random_grid(rows, cols, 0.3, 99, boundary);
    pl::Grid oracle = start;
    pl::run_reference(oracle, gens);

    pl::Grid full = start;
    const auto full_res = pl::run_sequential(full, gens, skip_off);
    EXPECT_EQ(full, oracle);
    EXPECT_EQ(full_res.tiles_skipped, 0u);

    pl::Grid skip = start;
    pl::run_sequential(skip, gens, skip_on);
    EXPECT_EQ(skip, oracle) << rows << "x" << cols;

    pl::Grid thr = start;
    pl::run_threaded(thr, gens, 3, skip_on);
    EXPECT_EQ(thr, oracle) << rows << "x" << cols;

    if (rows >= 2) {
      pl::Grid msg = start;
      pl::run_message_passing(msg, gens, 2, skip_on);
      EXPECT_EQ(msg, oracle) << rows << "x" << cols;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LifeSkipEquivalence,
    ::testing::Combine(::testing::Values(pl::Boundary::kDead,
                                         pl::Boundary::kTorus),
                       ::testing::Values(1, 3, 8)));

TEST(LifeStencil, SparseBoardActuallySkipsAndStaysExact) {
  // Soup in one corner of an otherwise dead board: most tiles must
  // sleep, and the result must equal the full sweep bit for bit.
  pl::Grid board(128, 256, pl::Boundary::kDead);
  const pl::Grid soup = pl::random_grid(24, 24, 0.4, 5, pl::Boundary::kDead);
  for (std::size_t r = 0; r < 24; ++r)
    for (std::size_t c = 0; c < 24; ++c) board.set(r, c, soup.get(r, c));

  pl::EngineOptions opt;
  opt.tile_rows = 8;
  opt.tile_words = 1;
  pl::Grid skip = board, full = board;
  const auto skip_res = pl::run_sequential(skip, 12, opt);
  opt.skip_quiescent = false;
  const auto full_res = pl::run_sequential(full, 12, opt);

  EXPECT_EQ(skip, full);
  EXPECT_EQ(full_res.tiles_skipped, 0u);
  EXPECT_GT(skip_res.tiles_skipped, skip_res.tiles_computed)
      << "sparse board should skip the majority of tiles";
  EXPECT_EQ(skip_res.tiles_computed + skip_res.tiles_skipped,
            full_res.tiles_computed);
}

TEST(LifeStencil, MessagePassingHaloWordsAreExact) {
  // 256 columns = 4 payload words, tiles_x = 2 -> 1 flag word; 2 ranks x
  // 2 messages x gens.
  pl::Grid board = pl::random_grid(64, 256, 0.3, 21);
  pl::EngineOptions opt;
  opt.tile_rows = 16;
  opt.tile_words = 2;
  const int gens = 7;
  const auto res = pl::run_message_passing(board, gens, 2, opt);
  EXPECT_EQ(res.halo_words,
            static_cast<std::uint64_t>(2 * 2 * gens) * (4u + 1u));
  EXPECT_EQ(res.steps, static_cast<std::uint64_t>(gens));
}

// ----------------------------------------------------------------- heat ---

namespace {

ps::HeatField hot_top(std::size_t rows, std::size_t cols) {
  ps::HeatField f(rows, cols, 0.0f);
  f.set_boundary(1.0f, 0.0f, 0.0f, 0.0f);
  return f;
}

}  // namespace

TEST(Heat, SequentialConvergesAndHeatFlowsDownward) {
  ps::HeatField f = hot_top(32, 32);
  ps::HeatOptions opt;
  opt.converge_eps = 1e-3;
  const ps::RunResult res = ps::heat_relax(f, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.steps, 1u);
  EXPECT_LE(res.last_delta, 1e-3);
  // Monotone temperature profile away from the hot edge.
  EXPECT_GT(f.at(0, 16), f.at(8, 16));
  EXPECT_GT(f.at(8, 16), f.at(31, 16));
  EXPECT_GT(f.at(31, 16), 0.0f);  // warmth reached the far edge
}

class HeatEngineIdentity : public ::testing::TestWithParam<double> {};

// The acceptance criterion: identical iteration counts (and residual,
// and field) on sequential, threaded, and message-passing engines — both
// with the exact dirty predicate and with a residual-based one.
TEST_P(HeatEngineIdentity, AllEnginesAgreeOnStepsResidualAndField) {
  const double quiesce = GetParam();
  ps::HeatOptions opt;
  opt.conductivity = 0.25;
  opt.converge_eps = 1e-4;
  opt.quiesce_eps = quiesce;
  opt.tile_rows = 16;
  opt.tile_cols = 32;

  ps::HeatField seq = hot_top(64, 96);
  const ps::RunResult rs = ps::heat_relax(seq, opt);
  EXPECT_TRUE(rs.converged);

  ps::HeatField thr = hot_top(64, 96);
  const ps::RunResult rt = ps::heat_relax_threaded(thr, opt, 4);
  EXPECT_EQ(rt.steps, rs.steps);
  EXPECT_EQ(rt.last_delta, rs.last_delta);
  EXPECT_EQ(rt.tiles_computed, rs.tiles_computed);
  EXPECT_TRUE(thr == seq);

  for (const int ranks : {1, 2, 4}) {
    ps::HeatField mp = hot_top(64, 96);
    const ps::RunResult rm = ps::heat_relax_mp(mp, opt, ranks);
    EXPECT_EQ(rm.steps, rs.steps) << "ranks=" << ranks;
    EXPECT_EQ(rm.last_delta, rs.last_delta) << "ranks=" << ranks;
    EXPECT_EQ(rm.tiles_computed, rs.tiles_computed) << "ranks=" << ranks;
    EXPECT_TRUE(mp == seq) << "ranks=" << ranks;
  }
}

INSTANTIATE_TEST_SUITE_P(ExactAndResidual, HeatEngineIdentity,
                         ::testing::Values(0.0, 1e-6));

TEST(Heat, SkippingExactPredicateMatchesFullSweep) {
  ps::HeatOptions opt;
  opt.converge_eps = 1e-4;
  opt.tile_rows = 8;
  opt.tile_cols = 16;
  ps::HeatField skip = hot_top(48, 64);
  const ps::RunResult rs = ps::heat_relax(skip, opt);
  opt.skip_quiescent = false;
  ps::HeatField full = hot_top(48, 64);
  const ps::RunResult rf = ps::heat_relax(full, opt);
  EXPECT_TRUE(skip == full);
  EXPECT_EQ(rs.steps, rf.steps);
  EXPECT_EQ(rs.last_delta, rf.last_delta);
  EXPECT_GT(rs.tiles_skipped, 0u);
  EXPECT_EQ(rf.tiles_skipped, 0u);
}

TEST(Heat, ResidualPredicateStaysCloseToExact) {
  ps::HeatOptions opt;
  opt.converge_eps = 1e-3;
  ps::HeatField exact = hot_top(48, 48);
  ps::heat_relax(exact, opt);
  opt.quiesce_eps = 1e-4;  // aggressive sleeping, bounded deviation
  ps::HeatField lazy = hot_top(48, 48);
  const ps::RunResult res = ps::heat_relax(lazy, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(exact.max_abs_diff(lazy), 0.05);
}

TEST(Heat, MpHaloWordsAreExact) {
  ps::HeatOptions opt;
  opt.conductivity = 0.25;
  opt.converge_eps = 1e-4;
  opt.tile_rows = 16;
  opt.tile_cols = 32;
  ps::HeatField f = hot_top(64, 96);
  const ps::RunResult res = ps::heat_relax_mp(f, opt, 2);
  // 2 ranks, each with one neighbor: 2 messages per step, each 1 flag
  // word + ceil(96/2) packed float words.
  EXPECT_EQ(res.halo_words, res.steps * 2u * (1u + 48u));
}

// ---------------------------------------------------------- heat kernel ---

namespace {

// The per-cell scalar loop HeatWorkload::step_tile used before it was
// vectorized, kept verbatim as the kernel's oracle.
double scalar_step_tile(const ps::HeatField& src, ps::HeatField& dst,
                        const ps::TileBounds& b, double conductivity) {
  const float k = static_cast<float>(conductivity);
  float max_d = 0.0f;
  for (std::size_t r = b.r0; r < b.r1; ++r) {
    const auto ri = static_cast<std::ptrdiff_t>(r);
    for (std::size_t c = b.c0; c < b.c1; ++c) {
      const auto ci = static_cast<std::ptrdiff_t>(c);
      const float cur = src.at(ri, ci);
      const float avg =
          0.25f * (src.at(ri - 1, ci) + src.at(ri + 1, ci) +
                   src.at(ri, ci - 1) + src.at(ri, ci + 1));
      const float next = cur + k * (avg - cur);
      dst.at(ri, ci) = next;
      max_d = std::max(max_d, std::fabs(next - cur));
    }
  }
  return static_cast<double>(max_d);
}

// Every cell, halo ring included, seeded uniform in [0, 1): neighbours
// are hotter for some cells and colder for others, so deltas of both
// signs occur.
ps::HeatField seeded_field(std::size_t rows, std::size_t cols,
                           std::uint64_t seed) {
  ps::HeatField f(rows, cols);
  std::uint64_t s = seed;
  for (std::ptrdiff_t r = -1; r <= static_cast<std::ptrdiff_t>(rows); ++r)
    for (std::ptrdiff_t c = -1; c <= static_cast<std::ptrdiff_t>(cols);
         ++c) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      f.at(r, c) = static_cast<float>(s >> 40) * 0x1p-24f;
    }
  return f;
}

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

// Runs the kernel and the oracle on one tile, each into a destination
// pre-filled with a sentinel, and checks every cell of both: bit-equal
// inside the tile, untouched outside. Returns the column of the largest
// delta (by the oracle) so callers can pin where the max came from.
std::size_t expect_tile_matches_oracle(const ps::HeatField& src,
                                       const ps::TileBounds& b, double k) {
  constexpr float kSentinel = -1234.5f;
  const std::size_t rows = src.rows(), cols = src.cols();
  ps::HeatField got(rows, cols, kSentinel), want(rows, cols, kSentinel);
  const double d_got = ps::HeatWorkload{k}.step_tile(src, got, b);
  const double d_want = scalar_step_tile(src, want, b, k);
  EXPECT_EQ(d_got, d_want);

  bool heats = false, cools = false;
  std::size_t argmax = b.c0;
  float best = -1.0f;
  for (std::ptrdiff_t r = -1; r <= static_cast<std::ptrdiff_t>(rows); ++r)
    for (std::ptrdiff_t c = -1; c <= static_cast<std::ptrdiff_t>(cols);
         ++c) {
      const bool inside = r >= static_cast<std::ptrdiff_t>(b.r0) &&
                          r < static_cast<std::ptrdiff_t>(b.r1) &&
                          c >= static_cast<std::ptrdiff_t>(b.c0) &&
                          c < static_cast<std::ptrdiff_t>(b.c1);
      const float expect = inside ? want.at(r, c) : kSentinel;
      EXPECT_EQ(bits(got.at(r, c)), bits(expect))
          << "cell (" << r << ", " << c << ") " << (inside ? "in" : "out of")
          << " tile rows [" << b.r0 << ", " << b.r1 << ") cols [" << b.c0
          << ", " << b.c1 << ")";
      if (!inside) continue;
      const float delta = want.at(r, c) - src.at(r, c);
      heats |= delta > 0.0f;
      cools |= delta < 0.0f;
      if (std::fabs(delta) > best) {
        best = std::fabs(delta);
        argmax = static_cast<std::size_t>(c);
      }
    }
  if (b.cols() * b.rows() >= 8) {
    EXPECT_TRUE(heats) << "tile cols [" << b.c0 << ", " << b.c1 << ")";
    EXPECT_TRUE(cools) << "tile cols [" << b.c0 << ", " << b.c1 << ")";
  }
  return argmax;
}

}  // namespace

// The vector kernel is a drop-in for the scalar loop: same field bits,
// same returned delta, and no store past the tile for every width from
// all-tail (1-3 cells) through ragged (5-7, 9, 63, 65) to whole vectors
// (4, 8, 64), at aligned and unaligned starts and against both halos.
TEST(HeatKernel, VectorKernelMatchesScalarPerCellOracle) {
  constexpr std::size_t kRows = 6, kCols = 70;
  const ps::HeatField src = seeded_field(kRows, kCols, 14);
  for (const double k : {0.2, 0.25}) {
    for (const std::size_t w : {1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65}) {
      for (const std::size_t c0 : {std::size_t{0}, std::size_t{1},
                                   std::size_t{3}, kCols - w}) {
        // Interior rows, then all rows (touching the top and bottom halo).
        expect_tile_matches_oracle(src, {1, kRows - 1, c0, c0 + w}, k);
        expect_tile_matches_oracle(src, {0, kRows, c0, c0 + w}, k);
      }
    }
  }

  // Pin the tile max first in the scalar tail, then in a vector lane: a
  // hot spike's own delta (k * spike) dwarfs every other in the tile.
  for (const std::size_t spike : {std::size_t{12}, std::size_t{5}}) {
    ps::HeatField f = seeded_field(kRows, kCols, 15);
    f.at(2, static_cast<std::ptrdiff_t>(spike)) = 50.0f;
    const ps::TileBounds b{1, 4, 3, 13};  // cols 3-10 vector, 11-12 tail
    EXPECT_EQ(expect_tile_matches_oracle(f, b, 0.2), spike);
  }
}

// ------------------------------------------ tile-stealing run_threaded ---

// Acceptance criterion for the work-stealing engine: tile stealing is a
// pure load-balance lever. Grids stay bit-identical to the sequential
// engine and the updated-tile accounting is *exactly* unchanged, for
// every thread count 1..8 and with stealing both on and off.
TEST(TileStealing, LifeGridsBitIdenticalAndTileCountsExact1To8Threads) {
  // Clustered sparse board — all live tiles in one corner, the worst
  // case for the static partition and the reason stealing exists.
  pl::Grid board(128, 256, pl::Boundary::kDead);
  const pl::Grid soup = pl::random_grid(24, 24, 0.4, 7, pl::Boundary::kDead);
  for (std::size_t r = 0; r < 24; ++r)
    for (std::size_t c = 0; c < 24; ++c) board.set(r, c, soup.get(r, c));

  const int gens = 10;
  pl::EngineOptions opt;
  opt.tile_rows = 8;
  opt.tile_words = 1;

  pl::Grid seq_g = board;
  const auto seq = pl::run_sequential(seq_g, gens, opt);

  for (int threads = 1; threads <= 8; ++threads) {
    for (const bool steal : {false, true}) {
      const ps::ExecPlan plan{.threads_per_rank = threads,
                              .steal_tiles = steal};
      pl::Grid g = board;
      const auto res = pl::run_plan(g, gens, plan, opt);
      EXPECT_EQ(g, seq_g) << "threads=" << threads << " steal=" << steal;
      EXPECT_EQ(res.tiles_computed, seq.tiles_computed)
          << "threads=" << threads << " steal=" << steal;
      EXPECT_EQ(res.tiles_skipped, seq.tiles_skipped)
          << "threads=" << threads << " steal=" << steal;
      EXPECT_EQ(res.steps, seq.steps);
    }
  }
}

TEST(TileStealing, HeatStealingMatchesSequentialExactly1To8Threads) {
  ps::HeatOptions opt;
  opt.conductivity = 0.25;
  opt.converge_eps = 1e-4;
  opt.tile_rows = 16;
  opt.tile_cols = 32;

  ps::HeatField seq = hot_top(64, 96);
  const ps::RunResult rs = ps::heat_relax(seq, opt);
  EXPECT_TRUE(rs.converged);

  for (int threads = 1; threads <= 8; ++threads) {
    for (const bool steal : {false, true}) {
      const ps::ExecPlan plan{.threads_per_rank = threads,
                              .steal_tiles = steal};
      ps::HeatField thr = hot_top(64, 96);
      const ps::RunResult rt = ps::heat_relax_plan(thr, opt, plan);
      EXPECT_EQ(rt.steps, rs.steps) << "threads=" << threads;
      EXPECT_EQ(rt.last_delta, rs.last_delta) << "threads=" << threads;
      EXPECT_EQ(rt.tiles_computed, rs.tiles_computed)
          << "threads=" << threads << " steal=" << steal;
      EXPECT_EQ(rt.tiles_skipped, rs.tiles_skipped);
      EXPECT_TRUE(thr == seq) << "threads=" << threads << " steal=" << steal;
    }
  }
}

// ------------------------------------------------- hybrid ExecPlan ------

// The single-entry-point contract: the legacy wrappers are thin aliases
// of run() on the corresponding plan — same grids, same accounting,
// same wire words, byte for byte.
TEST(HybridPlan, CompatWrappersMatchPlanEntryPoints) {
  const pl::Grid start = pl::random_grid(48, 96, 0.3, 11);
  pl::EngineOptions opt;
  opt.tile_rows = 8;
  opt.tile_words = 1;
  const int gens = 6;

  const auto expect_same = [](const ps::RunResult& a, const ps::RunResult& b,
                              const pl::Grid& ga, const pl::Grid& gb,
                              const char* what) {
    EXPECT_EQ(ga, gb) << what;
    EXPECT_EQ(a.steps, b.steps) << what;
    EXPECT_EQ(a.tiles_computed, b.tiles_computed) << what;
    EXPECT_EQ(a.tiles_skipped, b.tiles_skipped) << what;
    EXPECT_EQ(a.halo_words, b.halo_words) << what;
  };

  pl::Grid seq = start;
  const auto seq_res = pl::run_sequential(seq, gens, opt);
  pl::Grid p11 = start;
  const auto p11_res = pl::run_plan(p11, gens, ps::ExecPlan{}, opt);
  expect_same(seq_res, p11_res, seq, p11, "{1,1} vs run_sequential");
  EXPECT_EQ(p11_res.halo_words, 0u);

  pl::Grid thr = start;
  const auto thr_res = pl::run_threaded(thr, gens, 3, opt);
  pl::Grid p13 = start;
  const auto p13_res =
      pl::run_plan(p13, gens, ps::ExecPlan{.threads_per_rank = 3}, opt);
  expect_same(thr_res, p13_res, thr, p13, "{1,3} vs run_threaded");

  pl::Grid msg = start;
  std::uint64_t msg_msgs = 0, msg_words = 0;
  const auto msg_res =
      pl::run_message_passing(msg, gens, 2, opt, &msg_msgs, &msg_words);
  pl::Grid p21 = start;
  std::uint64_t plan_msgs = 0, plan_words = 0;
  const auto p21_res = pl::run_plan(p21, gens, ps::ExecPlan{.ranks = 2}, opt,
                                    &plan_msgs, &plan_words);
  expect_same(msg_res, p21_res, msg, p21, "{2,1} vs run_message_passing");
  EXPECT_EQ(msg_msgs, plan_msgs);
  EXPECT_EQ(msg_words, plan_words);
}

// The hybrid equivalence theorem, exercised: every plan shape {R,T} x
// {overlap, serial} x {steal on/off}, over the same awkward shapes the
// engine sweep uses, produces grids bit-identical to the sequential
// oracle. Tile accounting matches whenever the strip partition keeps
// the global tile grid (rows/ranks >= tile_rows); narrower strips
// shrink the tile height, which changes the counts but never the cells.
TEST(HybridPlan, LifeBitIdenticalToSeqOracleAcrossPlanMatrix) {
  pl::EngineOptions opt;
  opt.tile_rows = 2;
  opt.tile_words = 1;
  const int gens = 4;

  for (const auto& [rows, cols] : kShapes) {
    const pl::Grid start =
        pl::random_grid(rows, cols, 0.3, 77, pl::Boundary::kTorus);
    pl::Grid seq_g = start;
    const auto seq = pl::run_sequential(seq_g, gens, opt);

    for (const int ranks : {1, 2, 4}) {
      if (static_cast<std::size_t>(ranks) > rows) continue;
      for (const int threads : {1, 2, 4}) {
        for (const auto sched :
             {ps::HaloSchedule::kOverlap, ps::HaloSchedule::kSerial}) {
          for (const bool steal : {false, true}) {
            const ps::ExecPlan plan{.ranks = ranks,
                                    .threads_per_rank = threads,
                                    .schedule = sched,
                                    .steal_tiles = steal};
            const std::string tag =
                std::to_string(rows) + "x" + std::to_string(cols) +
                " plan{" + std::to_string(ranks) + "," +
                std::to_string(threads) +
                (sched == ps::HaloSchedule::kOverlap ? ",overlap"
                                                     : ",serial") +
                (steal ? ",steal}" : ",static}");
            pl::Grid g = start;
            const auto res = pl::run_plan(g, gens, plan, opt);
            EXPECT_EQ(g, seq_g) << tag;
            EXPECT_EQ(res.steps, seq.steps) << tag;
            if (rows / static_cast<std::size_t>(ranks) >= opt.tile_rows) {
              EXPECT_EQ(res.tiles_computed, seq.tiles_computed) << tag;
              EXPECT_EQ(res.tiles_skipped, seq.tiles_skipped) << tag;
            }
          }
        }
      }
    }
  }
}

// Same matrix for the float workload: fields, step counts, and the
// converged residual (a bit-exact double, thanks to the bit_cast kMax
// allreduce) must all match the sequential oracle.
TEST(HybridPlan, HeatBitIdenticalToSeqOracleAcrossPlanMatrix) {
  ps::HeatOptions opt;
  opt.conductivity = 0.25;
  opt.converge_eps = 1e-3;
  opt.tile_rows = 4;
  opt.tile_cols = 16;
  opt.max_steps = 400;

  constexpr std::pair<std::size_t, std::size_t> kFields[] = {{24, 20},
                                                             {33, 17}};
  for (const auto& [rows, cols] : kFields) {
    ps::HeatField seq = hot_top(rows, cols);
    const ps::RunResult rs = ps::heat_relax(seq, opt);
    EXPECT_TRUE(rs.converged);

    for (const int ranks : {1, 2, 4}) {
      for (const int threads : {1, 2, 4}) {
        for (const auto sched :
             {ps::HaloSchedule::kOverlap, ps::HaloSchedule::kSerial}) {
          for (const bool steal : {false, true}) {
            const ps::ExecPlan plan{.ranks = ranks,
                                    .threads_per_rank = threads,
                                    .schedule = sched,
                                    .steal_tiles = steal};
            const std::string tag =
                std::to_string(rows) + "x" + std::to_string(cols) +
                " plan{" + std::to_string(ranks) + "," +
                std::to_string(threads) +
                (sched == ps::HaloSchedule::kOverlap ? ",overlap"
                                                     : ",serial") +
                (steal ? ",steal}" : ",static}");
            ps::HeatField f = hot_top(rows, cols);
            const ps::RunResult rt = ps::heat_relax_plan(f, opt, plan);
            EXPECT_TRUE(f == seq) << tag;
            EXPECT_EQ(rt.steps, rs.steps) << tag;
            EXPECT_EQ(rt.last_delta, rs.last_delta) << tag;
            EXPECT_TRUE(rt.converged) << tag;
            if (rows / static_cast<std::size_t>(ranks) >= opt.tile_rows) {
              EXPECT_EQ(rt.tiles_computed, rs.tiles_computed) << tag;
              EXPECT_EQ(rt.tiles_skipped, rs.tiles_skipped) << tag;
            }
          }
        }
      }
    }
  }
}

TEST(HybridPlan, ValidatesPlanShapeAndTransport) {
  pl::Grid g = pl::random_grid(8, 8, 0.3, 1);
  EXPECT_THROW(pl::run_plan(g, 1, ps::ExecPlan{.ranks = 0}),
               std::invalid_argument);
  EXPECT_THROW(pl::run_plan(g, 1, ps::ExecPlan{.threads_per_rank = 0}),
               std::invalid_argument);
  // In-process drivers refuse process transports: those worlds are
  // launched via mp::launch::run_spmd with the strip-level run() inside
  // each body.
  EXPECT_THROW(
      pl::run_plan(
          g, 1,
          ps::ExecPlan{.ranks = 2, .transport = mp::TransportKind::kShm}),
      std::invalid_argument);
  ps::HeatField f = hot_top(8, 8);
  ps::HeatOptions hopt;
  EXPECT_THROW(ps::heat_relax_plan(f, hopt, ps::ExecPlan{.ranks = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      ps::heat_relax_plan(
          f, hopt,
          ps::ExecPlan{.ranks = 2, .transport = mp::TransportKind::kTcp}),
      std::invalid_argument);
}

// ------------------------------------------- funneled threading mode ---

// The mp::Threading contract the hybrid engine relies on: once a rank
// enters kFunneled mode, communication from any thread other than the
// designated one is a deterministic std::logic_error, not a silent
// mailbox race.
TEST(MpThreading, FunneledModeRejectsCommFromForeignThreads) {
  if (!mp::thread_checks_enabled())
    GTEST_SKIP() << "thread checks compiled out (NDEBUG build)";
  mp::Communicator comm(2);
  comm.run([](mp::RankContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.set_threading(mp::Threading::kFunneled);
      EXPECT_EQ(ctx.threading(), mp::Threading::kFunneled);
      ctx.send_value(1, 0, 42);  // the designated thread may still talk
      bool threw = false;
      std::thread foreign([&] {
        try {
          ctx.send_value(1, 1, -1);  // must never reach the wire
        } catch (const std::logic_error&) {
          threw = true;
        }
      });
      foreign.join();
      EXPECT_TRUE(threw) << "off-thread send in kFunneled mode must throw";
      // Dropping back to kSingle re-pins the comm thread to the caller.
      ctx.set_threading(mp::Threading::kSingle);
      ctx.send_value(1, 1, 43);
    } else {
      EXPECT_EQ(ctx.recv_value(0, 0), 42);
      EXPECT_EQ(ctx.recv_value(0, 1), 43);
    }
  });
}

TEST(Heat, ValidatesArguments) {
  EXPECT_THROW(ps::HeatField(0, 4), std::invalid_argument);
  ps::HeatField f = hot_top(8, 8);
  ps::HeatOptions opt;
  EXPECT_THROW(ps::heat_relax_threaded(f, opt, 0), std::invalid_argument);
  EXPECT_THROW(ps::heat_relax_mp(f, opt, 0), std::invalid_argument);
  EXPECT_THROW(ps::heat_relax_mp(f, opt, 9), std::invalid_argument);
}
