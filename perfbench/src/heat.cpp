// heat_hybrid: float heat relaxation to convergence on plan {2 ranks x 2
// threads} over the inproc transport. Every step pays the tile kernel, a
// team barrier, a packed halo exchange and a convergence allreduce.

#include <iostream>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "inputs.hpp"
#include "pdc/core/team.hpp"
#include "pdc/stencil/heat.hpp"

namespace perfbench {

namespace {
constexpr double kEps = 1e-4;
constexpr int kMaxSteps = 20000;
/// Left-right asymmetry allowed in the result: the mirrored cell sums its
/// left and right neighbours in the other order, so float rounding may
/// differ by a few ulps per step; it must stay far below the signal.
constexpr double kMirrorTol = 1e-4;
}  // namespace

Result run_heat_hybrid(const Args& args) {
  namespace st = pdc::stencil;
  Result res;
  const st::ExecPlan plan{.ranks = 2, .threads_per_rank = 2};
  st::HeatOptions opt;
  opt.converge_eps = kEps;
  opt.max_steps = kMaxSteps;
  st::HeatField field = heat_input(kHeatN, args.seed);
  pdc::core::Team::run(plan.threads_per_rank, [](pdc::core::TeamContext&) {});
  const double setup_s = seconds_since(args.start);

  // Each solve is compared with the first through a digest, and the field
  // is reset in place, so the benchmark holds no second field.
  st::RunResult last;
  std::uint64_t solves = 0, differing = 0, first = 0;
  const Phase phase{
      .prepare = [&] { fill_heat_input(field, args.seed); },
      .run = [&] { last = st::heat_relax_plan(field, opt, plan); },
      .verify =
          [&] {
            const std::uint64_t d = checks::digest(field);
            if (solves++ == 0) first = d;
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
    // The single-threaded baseline: one plain sequential solve.
    st::HeatField seq = heat_input(kHeatN, args.seed);
    const auto t0 = Clock::now();
    (void)st::heat_relax(seq, opt);
    res.per_layer["heat.seq_solve_s"] = {seconds_since(t0), "s"};
    res.check(seq == field, "the sequential solve equals the hybrid one");
  }

  res.attempted = solves;
  res.failed = differing;
  res.check(differing == 0,
            std::to_string(differing) + " solves differ from the first");
  res.check(last.converged && last.steps < static_cast<std::uint64_t>(kMaxSteps),
            "converged before max_steps (steps " + std::to_string(last.steps) +
                ")");
  const double residual = checks::heat_residual(field, opt.conductivity);
  res.check(residual <= kEps,
            "residual " + std::to_string(residual) + " <= eps");
  res.check(checks::heat_within(field, 0.0f, 1.0f),
            "every cell within the boundary temperatures [0, 1]");
  const double asym = checks::heat_mirror_error(field);
  res.check(asym <= kMirrorTol,
            "mirror asymmetry " + std::to_string(asym) + " <= tolerance");
  std::cerr << "perfbench: heat_hybrid " << kHeatN << "^2, " << last.steps
            << " steps, residual " << residual << ", asymmetry " << asym
            << "\n";
  return res;
}

}  // namespace perfbench
