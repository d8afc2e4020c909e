#include "pdc/stencil/heat.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace pdc::stencil {

namespace {

Options engine_opts(const HeatOptions& o) {
  Options e;
  e.tile_rows = o.tile_rows;
  e.tile_cols = o.tile_cols;
  e.max_steps = o.max_steps;
  e.skip_quiescent = o.skip_quiescent;
  e.quiesce_eps = o.quiesce_eps;
  e.converge_eps = o.converge_eps;
  e.span_name = "heat.step";
  return e;
}

/// One rank per strip, partitioned on tile-row boundaries (see
/// heat_relax_plan); each strip relaxed by plan.threads_per_rank threads.
RunResult relax_strips(HeatField& field, const HeatOptions& opt,
                       const ExecPlan& plan) {
  const int ranks = plan.ranks;
  const std::size_t rows = field.rows();
  if (static_cast<std::size_t>(ranks) > rows)
    throw std::invalid_argument("more ranks than rows");
  if (plan.transport != mp::TransportKind::kInproc)
    throw std::invalid_argument(
        "heat_relax_plan runs its ranks in-process (inproc transport); "
        "launch shm/tcp worlds with mp::launch::run_spmd and call "
        "heat_relax_strip inside each body");

  // Partition on tile-row boundaries so every strip's tile grid is the
  // global grid restricted to its rows: distributed skip decisions then
  // match the shared-memory engines tile for tile. Shrink the tile
  // height if needed so every rank owns at least one tile row.
  const std::size_t tile_h = std::max<std::size_t>(
      1, std::min(opt.tile_rows, rows / static_cast<std::size_t>(ranks)));
  const std::size_t n_tiles = (rows + tile_h - 1) / tile_h;
  const auto tile_range = [&](int r) {
    const auto n = n_tiles, p = static_cast<std::size_t>(ranks);
    const auto rr = static_cast<std::size_t>(r);
    const std::size_t lo = rr * (n / p) + std::min(rr, n % p);
    return std::pair{lo, lo + n / p + (rr < n % p ? 1 : 0)};
  };

  HeatOptions strip_opt = opt;
  strip_opt.tile_rows = tile_h;
  std::vector<RunResult> results(static_cast<std::size_t>(ranks));
  mp::Communicator comm(ranks);
  comm.run([&](mp::RankContext& ctx) {
    const int r = ctx.rank();
    const auto [tlo, thi] = tile_range(r);
    const std::size_t r0 = tlo * tile_h;
    const std::size_t r1 = std::min(rows, thi * tile_h);
    HeatField strip(r1 - r0, field.cols());
    // Copy the padded strip rows wholesale: the left/right halo columns
    // are the Dirichlet boundary, the top/bottom halo rows start as the
    // neighbor's edge rows (or the global boundary at the domain edge)
    // and are refreshed by the halo exchange every step.
    for (std::size_t pr = 0; pr < (r1 - r0) + 2; ++pr)
      std::copy_n(
          &field.at(static_cast<std::ptrdiff_t>(r0 + pr) - 1, -1),
          field.cols() + 2,
          &strip.at(static_cast<std::ptrdiff_t>(pr) - 1, -1));

    MpLinks links{r > 0 ? r - 1 : -1, r + 1 < ranks ? r + 1 : -1};
    results[static_cast<std::size_t>(r)] =
        heat_relax_strip(strip, strip_opt, plan, ctx, links);

    ctx.barrier();  // everyone done reading `field` before writeback
    for (std::size_t pr = 0; pr < r1 - r0; ++pr)
      std::copy_n(&strip.at(static_cast<std::ptrdiff_t>(pr), 0),
                  field.cols(),
                  &field.at(static_cast<std::ptrdiff_t>(r0 + pr), 0));
  });

  RunResult total = results[0];
  for (int i = 1; i < ranks; ++i) {
    const auto& res = results[static_cast<std::size_t>(i)];
    total.tiles_computed += res.tiles_computed;
    total.tiles_skipped += res.tiles_skipped;
    total.halo_words += res.halo_words;
    total.last_delta = std::max(total.last_delta, res.last_delta);
  }
  return total;
}

}  // namespace

HeatField::HeatField(std::size_t rows, std::size_t cols, float initial)
    : rows_(rows), cols_(cols) {
  if (rows == 0 || cols == 0)
    throw std::invalid_argument("heat field dimensions must be > 0");
  data_.assign((rows_ + 2) * (cols_ + 2), initial);
}

void HeatField::set_boundary(float top, float bottom, float left,
                             float right) {
  const std::ptrdiff_t nr = static_cast<std::ptrdiff_t>(rows_);
  const std::ptrdiff_t nc = static_cast<std::ptrdiff_t>(cols_);
  for (std::ptrdiff_t c = -1; c <= nc; ++c) {
    at(-1, c) = top;
    at(nr, c) = bottom;
  }
  for (std::ptrdiff_t r = 0; r < nr; ++r) {
    at(r, -1) = left;
    at(r, nc) = right;
  }
}

double HeatField::max_abs_diff(const HeatField& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("heat field shape mismatch");
  double m = 0.0;
  for (std::ptrdiff_t r = 0; r < static_cast<std::ptrdiff_t>(rows_); ++r)
    for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(cols_); ++c)
      m = std::max(m, std::fabs(static_cast<double>(at(r, c)) -
                                static_cast<double>(other.at(r, c))));
  return m;
}

// One kernel, four cells per vector, bit-identical to the per-cell scalar
// loop that tests/stencil_test.cpp keeps as its oracle:
//  - every lane evaluates cur + k * (0.25f * (((up + down) + left) + right)
//    - cur) in exactly that order, as does the scalar tail;
//  - |next - cur| clears the sign bit, which is what std::fabs does;
//  - the tile max is a per-lane `d > m ? d : m`, folded across lanes at the
//    end. On non-NaN values max is order-free, and a NaN is dropped exactly
//    as std::max(m, d) drops it, so the fold order cannot change the result;
//  - the project builds in ISO mode (CMAKE_CXX_EXTENSIONS OFF), so GCC does
//    not contract the multiply-adds into FMAs.
// Rows are cols()+2 floats apart and not 16-byte aligned, so vectors are
// loaded and stored with memcpy.
double HeatWorkload::step_tile(const Field& src, Field& dst,
                               const TileBounds& b) const {
  using f32x4 = float __attribute__((vector_size(16)));
  using u32x4 = std::uint32_t __attribute__((vector_size(16)));
  constexpr std::size_t kLanes = 4;
  const auto load = [](const float* p) {
    f32x4 v;
    std::memcpy(&v, p, sizeof v);
    return v;
  };

  const float k = static_cast<float>(conductivity);
  const std::size_t n = b.cols();
  const std::size_t n_vec = n - n % kLanes;
  const auto c0 = static_cast<std::ptrdiff_t>(b.c0);
  f32x4 lane_max = {};
  float max_d = 0.0f;
  for (std::size_t r = b.r0; r < b.r1; ++r) {
    const auto ri = static_cast<std::ptrdiff_t>(r);
    const float* up = &src.at(ri - 1, c0);
    const float* mid = &src.at(ri, c0);
    const float* down = &src.at(ri + 1, c0);
    const float* left = mid - 1;
    const float* right = mid + 1;
    float* out = &dst.at(ri, c0);
    std::size_t i = 0;
    for (; i < n_vec; i += kLanes) {
      const f32x4 cur = load(mid + i);
      const f32x4 avg = 0.25f * (((load(up + i) + load(down + i)) +
                                  load(left + i)) +
                                 load(right + i));
      const f32x4 next = cur + k * (avg - cur);
      std::memcpy(out + i, &next, sizeof next);
      const f32x4 d = std::bit_cast<f32x4>(
          std::bit_cast<u32x4>(next - cur) & 0x7fffffffu);
      lane_max = d > lane_max ? d : lane_max;
    }
    for (; i < n; ++i) {
      const float cur = mid[i];
      const float avg = 0.25f * (((up[i] + down[i]) + left[i]) + right[i]);
      const float next = cur + k * (avg - cur);
      out[i] = next;
      const float d = std::fabs(next - cur);
      max_d = d > max_d ? d : max_d;
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l)
    max_d = lane_max[l] > max_d ? lane_max[l] : max_d;
  return static_cast<double>(max_d);
}

void HeatWorkload::pack_row(const Field& f, bool top,
                            std::int64_t* out) const {
  const std::ptrdiff_t r =
      top ? 0 : static_cast<std::ptrdiff_t>(f.rows()) - 1;
  out[halo_words(f) - 1] = 0;  // zero the odd-cols tail half-word
  std::memcpy(out, &f.at(r, 0), f.cols() * sizeof(float));
}

void HeatWorkload::unpack_halo(Field& f, bool above,
                               const std::int64_t* in) const {
  const std::ptrdiff_t r =
      above ? -1 : static_cast<std::ptrdiff_t>(f.rows());
  std::memcpy(&f.at(r, 0), in, f.cols() * sizeof(float));
}

RunResult heat_relax(HeatField& field, const HeatOptions& opt) {
  HeatWorkload w{opt.conductivity};
  HeatField scratch = field;  // clones the boundary ring too
  return run_seq(w, field, scratch, engine_opts(opt));
}

RunResult heat_relax_threaded(HeatField& field, const HeatOptions& opt,
                              int threads) {
  return heat_relax_plan(field, opt, ExecPlan{.threads_per_rank = threads});
}

RunResult heat_relax_strip(HeatField& strip, const HeatOptions& opt,
                           mp::RankContext& ctx, const MpLinks& links) {
  return heat_relax_strip(strip, opt, ExecPlan{}, ctx, links);
}

RunResult heat_relax_strip(HeatField& strip, const HeatOptions& opt,
                           const ExecPlan& plan, mp::RankContext& ctx,
                           const MpLinks& links) {
  HeatWorkload w{opt.conductivity};
  HeatField scratch = strip;
  return run(w, strip, scratch, plan, engine_opts(opt), ctx, links);
}

RunResult heat_relax_plan(HeatField& field, const HeatOptions& opt,
                          const ExecPlan& plan) {
  detail::validate(plan);
  if (plan.ranks == 1) {
    HeatWorkload w{opt.conductivity};
    HeatField scratch = field;
    return run(w, field, scratch, plan, engine_opts(opt));
  }
  return relax_strips(field, opt, plan);
}

RunResult heat_relax_mp(HeatField& field, const HeatOptions& opt,
                        int ranks) {
  ExecPlan plan{.ranks = ranks};
  detail::validate(plan);
  // Always through the communicator, even for one rank (a 1-rank strip
  // world is legal and distinct from the local engine: it allreduces).
  return relax_strips(field, opt, plan);
}

}  // namespace pdc::stencil
