// life_threads: bit-packed Life for a fixed number of generations on plan
// {1 rank x 4 threads}. The soup fills only the top half of the torus, so
// the SWAR kernel, dirty-tile skipping and tile stealing over a clustered
// board do the work; no message is sent.

#include <iostream>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "inputs.hpp"
#include "pdc/core/team.hpp"
#include "pdc/life/engine.hpp"

namespace perfbench {

namespace {
constexpr int kGenerations = 200;
/// The reduced board of the cell-for-cell comparison with naive Life.
constexpr std::size_t kSmallRows = 128, kSmallCols = 512;
constexpr int kSmallGenerations = 150;
}  // namespace

Result run_life_threads(const Args& args) {
  namespace lf = pdc::life;
  Result res;
  const pdc::stencil::ExecPlan plan{.ranks = 1, .threads_per_rank = 4};
  const lf::EngineOptions eo{.tile_rows = kLifeTileRows,
                             .tile_words = kLifeTileWords};
  lf::Grid board = life_input(kLifeRows, kLifeCols, args.seed);
  pdc::core::Team::run(plan.threads_per_rank, [](pdc::core::TeamContext&) {});
  const double setup_s = seconds_since(args.start);

  // Each run is compared with the first through a digest, and the board is
  // reset in place, so the benchmark holds no second board.
  pdc::stencil::RunResult last;
  std::uint64_t runs = 0, differing = 0, first = 0;
  const Phase phase{
      .prepare = [&] { fill_life_input(board, args.seed); },
      .run = [&] { last = lf::run_plan(board, kGenerations, plan, eo); },
      .verify =
          [&] {
            const std::uint64_t d = checks::digest(board);
            if (runs++ == 0) first = d;
            if (d != first) ++differing;
          },
  };
  add_end_to_end(res, setup_s, timed_phases(args.seconds, phase));

  if (args.trace) {
    TraceWindow tw;
    phase.prepare();
    tw.start();
    phase.run();
    tw.stop();
    phase.verify();
    tw.add_metrics(res);
    add_microbenchmarks(res, plan.ranks, plan.ranks * plan.threads_per_rank);
  }

  res.attempted = runs;
  res.failed = differing;
  res.check(differing == 0,
            std::to_string(differing) + " runs differ from the first");
  res.check(checks::life_mirrored(board),
            "the final board keeps the left-right mirror symmetry");
  const std::uint64_t tiles = checks::life_tiles(kLifeRows, kLifeCols, eo);
  res.check(last.steps == kGenerations &&
                last.tiles_computed + last.tiles_skipped ==
                    last.steps * tiles,
            "tiles computed + skipped == generations x " +
                std::to_string(tiles) + " tiles");

  lf::Grid small = life_input(kSmallRows, kSmallCols, args.seed);
  const lf::Grid expect = checks::naive_life(small, kSmallGenerations);
  (void)lf::run_plan(small, kSmallGenerations, plan, eo);
  const std::size_t wrong = checks::cells_differing(small, expect);
  res.check(wrong == 0, "the engine matches naive Life on the reduced board (" +
                            std::to_string(wrong) + " cells differ)");
  std::cerr << "perfbench: life_threads " << kLifeRows << "x" << kLifeCols
            << ", " << kGenerations << " generations, "
            << last.tiles_computed << " of " << last.steps * tiles
            << " tiles computed, population " << board.population() << "\n";
  return res;
}

}  // namespace perfbench
