// The benchmark's own tests: each correctness check accepts a true output
// of the program and rejects the same output with one fault put in (a
// flipped Life cell, a heat cell pushed past eps, a get answered with
// another key's value), and the in-place input resets give the inputs
// again. Exits non-zero if any of them does not.
//
//   perfbench_checks

#include <cstdlib>
#include <iostream>

#include "checks.hpp"
#include "inputs.hpp"
#include "pdc/life/engine.hpp"
#include "pdc/stencil/heat.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

void heat_checks() {
  namespace st = pdc::stencil;
  constexpr double kEps = 1e-3;
  st::HeatOptions opt;
  opt.converge_eps = kEps;
  st::HeatField f = perfbench::heat_input(64, 3);
  const st::RunResult r = st::heat_relax_plan(
      f, opt, st::ExecPlan{.ranks = 2, .threads_per_rank = 2});
  expect(r.converged, "heat: the solve converges");
  expect(perfbench::checks::heat_residual(f, opt.conductivity) <= kEps,
         "heat: residual of the solved field is within eps");
  expect(perfbench::checks::heat_within(f, 0.0f, 1.0f),
         "heat: the solved field lies within [0, 1]");
  expect(perfbench::checks::heat_mirror_error(f) <= 1e-4,
         "heat: the solved field is mirror symmetric");

  st::HeatField bumped = f;
  bumped.at(30, 20) += static_cast<float>(20 * kEps);
  expect(perfbench::checks::heat_residual(bumped, opt.conductivity) > kEps,
         "heat: a cell pushed past eps fails the residual check");
  expect(perfbench::checks::heat_mirror_error(bumped) > 1e-4,
         "heat: a cell pushed past eps fails the mirror check");
  st::HeatField hot = f;
  hot.at(10, 10) = 1.5f;
  expect(!perfbench::checks::heat_within(hot, 0.0f, 1.0f),
         "heat: a cell above the hottest edge fails the bounds check");
  expect(perfbench::checks::digest(bumped) != perfbench::checks::digest(f),
         "heat: a pushed cell changes the field digest");
  st::HeatField refilled = f;
  perfbench::fill_heat_input(refilled, 3);
  expect(refilled == perfbench::heat_input(64, 3),
         "heat: refilling a solved field gives the input again");
}

void life_checks() {
  namespace lf = pdc::life;
  const lf::EngineOptions eo{.tile_rows = 16, .tile_words = 8};
  const pdc::stencil::ExecPlan plan{.ranks = 1, .threads_per_rank = 4};
  constexpr int kGens = 40;
  lf::Grid board = perfbench::life_input(64, 1024, 5);
  const lf::Grid expect_board = perfbench::checks::naive_life(board, kGens);
  const pdc::stencil::RunResult r = lf::run_plan(board, kGens, plan, eo);
  expect(perfbench::checks::cells_differing(board, expect_board) == 0,
         "life: the engine matches naive Life");
  expect(perfbench::checks::life_mirrored(board),
         "life: the engine keeps the mirror symmetry");
  const std::uint64_t tiles = perfbench::checks::life_tiles(64, 1024, eo);
  expect(tiles == 4 * 2 && r.tiles_computed + r.tiles_skipped == kGens * tiles,
         "life: tiles computed + skipped == generations x tiles");

  lf::Grid flipped = board;
  flipped.set(17, 100, !flipped.get(17, 100));
  expect(perfbench::checks::cells_differing(flipped, expect_board) == 1,
         "life: one flipped cell fails the naive comparison");
  expect(!perfbench::checks::life_mirrored(flipped),
         "life: one flipped cell fails the mirror check");
  expect(perfbench::checks::digest(flipped) != perfbench::checks::digest(board),
         "life: one flipped cell changes the board digest");
  lf::Grid refilled = board;
  perfbench::fill_life_input(refilled, 5);
  expect(refilled == perfbench::life_input(64, 1024, 5),
         "life: refilling an evolved board gives the input again");
  expect(perfbench::checks::naive_life(perfbench::life_input(8, 8, 1), 0) ==
             perfbench::life_input(8, 8, 1),
         "life: zero naive generations return the start");
}

void dht_checks() {
  using perfbench::checks::dht_get_ok;
  using perfbench::checks::dht_value;
  expect(dht_get_ok(12345, true, dht_value(12345, 7)),
         "dht: a get answered with its own key's value passes");
  expect(!dht_get_ok(12345, true, dht_value(12346, 7)),
         "dht: a get answered with another key's value fails");
  expect(!dht_get_ok(12345, false, dht_value(12345, 7)),
         "dht: a get that was not found fails");
  const perfbench::ZipfTable zipf(1024, 0.99);
  bool one_writer = true;
  for (int r = 0; r < 4; ++r)
    for (const auto& op : perfbench::dht_stream(r, 4, 5000, zipf, 9))
      if (!op.is_get())
        one_writer = one_writer && perfbench::dht_writer(op.key(), 4) == r;
  expect(one_writer, "dht: every put in a rank's stream is to a key it writes");
}

}  // namespace

int main() {
  heat_checks();
  life_checks();
  dht_checks();
  std::cout << (failures == 0 ? "all checks behave\n" : "checks misbehave\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
