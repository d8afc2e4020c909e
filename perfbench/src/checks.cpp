#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace perfbench::checks {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over 64-bit words, then the bytes left. Each step is a bijection
/// of h, so two inputs that differ in a single word never collide.
void fnv_mix(std::uint64_t& h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (; bytes >= 8; p += 8, bytes -= 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * kFnvPrime;
  }
  for (; bytes > 0; ++p, --bytes) h = (h ^ *p) * kFnvPrime;
}

}  // namespace

std::uint64_t digest(const pdc::stencil::HeatField& f) {
  std::uint64_t h = kFnvOffset;
  const auto rows = static_cast<std::ptrdiff_t>(f.rows());
  const auto cols = static_cast<std::ptrdiff_t>(f.cols());
  for (std::ptrdiff_t r = -1; r <= rows; ++r)
    for (std::ptrdiff_t c = -1; c <= cols; ++c) {
      const float v = f.at(r, c);
      fnv_mix(h, &v, sizeof v);
    }
  return h;
}

std::uint64_t digest(const pdc::life::Grid& g) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t r = 0; r < g.rows(); ++r) fnv_mix(h, g.row_data(r), g.cols());
  return h;
}

double heat_residual(const pdc::stencil::HeatField& f, double conductivity) {
  const auto rows = static_cast<std::ptrdiff_t>(f.rows());
  const auto cols = static_cast<std::ptrdiff_t>(f.cols());
  double worst = 0.0;
  for (std::ptrdiff_t r = 0; r < rows; ++r)
    for (std::ptrdiff_t c = 0; c < cols; ++c) {
      const double cur = f.at(r, c);
      const double avg = 0.25 * (static_cast<double>(f.at(r - 1, c)) +
                                 f.at(r + 1, c) + f.at(r, c - 1) +
                                 f.at(r, c + 1));
      worst = std::max(worst, std::fabs(conductivity * (avg - cur)));
    }
  return worst;
}

bool heat_within(const pdc::stencil::HeatField& f, float lo, float hi) {
  const auto rows = static_cast<std::ptrdiff_t>(f.rows());
  const auto cols = static_cast<std::ptrdiff_t>(f.cols());
  for (std::ptrdiff_t r = 0; r < rows; ++r)
    for (std::ptrdiff_t c = 0; c < cols; ++c)
      if (!(f.at(r, c) >= lo && f.at(r, c) <= hi)) return false;
  return true;
}

double heat_mirror_error(const pdc::stencil::HeatField& f) {
  const auto rows = static_cast<std::ptrdiff_t>(f.rows());
  const auto cols = static_cast<std::ptrdiff_t>(f.cols());
  double worst = 0.0;
  for (std::ptrdiff_t r = 0; r < rows; ++r)
    for (std::ptrdiff_t c = 0; c < cols / 2; ++c)
      worst = std::max(worst, std::fabs(static_cast<double>(f.at(r, c)) -
                                        f.at(r, cols - 1 - c)));
  return worst;
}

bool life_mirrored(const pdc::life::Grid& g) {
  const std::size_t cols = g.cols();
  for (std::size_t r = 0; r < g.rows(); ++r) {
    const std::uint8_t* row = g.row_data(r);
    for (std::size_t c = 0; c < cols / 2; ++c)
      if (row[c] != row[cols - 1 - c]) return false;
  }
  return true;
}

std::uint64_t life_tiles(std::size_t rows, std::size_t cols,
                         const pdc::life::EngineOptions& opt) {
  const std::size_t words = (cols + 63) / 64;
  return ((rows + opt.tile_rows - 1) / opt.tile_rows) *
         ((words + opt.tile_words - 1) / opt.tile_words);
}

pdc::life::Grid naive_life(const pdc::life::Grid& start, int generations) {
  const std::size_t rows = start.rows(), cols = start.cols();
  std::vector<std::uint8_t> cur(rows * cols), nxt(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    std::copy_n(start.row_data(r), cols, cur.begin() + r * cols);
  for (int g = 0; g < generations; ++g) {
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c) {
        int n = 0;
        for (std::size_t dr : {rows - 1, std::size_t{0}, std::size_t{1}})
          for (std::size_t dc : {cols - 1, std::size_t{0}, std::size_t{1}})
            if (dr != 0 || dc != 0)
              n += cur[((r + dr) % rows) * cols + (c + dc) % cols];
        const bool alive = cur[r * cols + c] != 0;
        nxt[r * cols + c] = (n == 3 || (alive && n == 2)) ? 1 : 0;
      }
    cur.swap(nxt);
  }
  pdc::life::Grid out(rows, cols, start.boundary());
  for (std::size_t r = 0; r < rows; ++r)
    std::copy_n(cur.begin() + r * cols, cols, out.row_data(r));
  return out;
}

std::size_t cells_differing(const pdc::life::Grid& a,
                            const pdc::life::Grid& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    throw std::invalid_argument("life boards differ in shape");
  std::size_t n = 0;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      n += (a.row_data(r)[c] != 0) != (b.row_data(r)[c] != 0) ? 1 : 0;
  return n;
}

}  // namespace perfbench::checks
