#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

pdc::stencil::HeatField heat_input(std::size_t n, std::uint64_t seed) {
  pdc::stencil::HeatField f(n, n);
  fill_heat_input(f, seed);
  return f;
}

void fill_heat_input(pdc::stencil::HeatField& f, std::uint64_t seed) {
  // Small enough that the hot edge, not the seed, sets the step count: at
  // amplitude 1 the steps to convergence ranged from 1,709 to 1,881 by seed.
  constexpr double kNoise = 0.01;
  if (f.rows() != f.cols())
    throw std::invalid_argument("heat: the plate must be square");
  const auto nn = static_cast<std::ptrdiff_t>(f.rows());
  for (std::ptrdiff_t r = -1; r <= nn; ++r)
    for (std::ptrdiff_t c = -1; c <= nn; ++c) f.at(r, c) = 0.0f;
  f.set_boundary(1.0f, 0.0f, 0.0f, 0.0f);
  Rng rng(seed ^ 0x4EA7ULL);
  for (std::ptrdiff_t r = 0; r < nn; ++r)
    for (std::ptrdiff_t c = 0; c < (nn + 1) / 2; ++c) {
      const auto t = static_cast<float>(kNoise * rng.unit());
      f.at(r, c) = t;
      f.at(r, nn - 1 - c) = t;
    }
}

pdc::life::Grid life_input(std::size_t rows, std::size_t cols,
                           std::uint64_t seed) {
  pdc::life::Grid g(rows, cols, pdc::life::Boundary::kTorus);
  fill_life_input(g, seed);
  return g;
}

void fill_life_input(pdc::life::Grid& g, std::uint64_t seed) {
  const std::size_t rows = g.rows(), cols = g.cols();
  Rng rng(seed ^ 0x11FEULL);
  for (std::size_t r = 0; r < rows; ++r) {
    std::uint8_t* row = g.row_data(r);
    if (r >= rows / 2) {
      std::fill(row, row + cols, std::uint8_t{0});
      continue;
    }
    for (std::size_t c = 0; c < (cols + 1) / 2; ++c) {
      const auto alive = static_cast<std::uint8_t>(rng.next() >> 63);
      row[c] = alive;
      row[cols - 1 - c] = alive;
    }
  }
}

ZipfTable::ZipfTable(std::size_t n, double theta) : cdf_(n) {
  if (n == 0) throw std::invalid_argument("zipf: empty keyspace");
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    cdf_[k] = sum;
  }
  for (auto& c : cdf_) c /= sum;
}

std::int64_t ZipfTable::draw(Rng& rng) const {
  const double u = rng.unit();
  std::size_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u)
      lo = mid + 1;
    else
      hi = mid;
  }
  return static_cast<std::int64_t>(lo);
}

std::vector<KvOp> dht_stream(int rank, int ranks, std::size_t n,
                             const ZipfTable& zipf, std::uint64_t seed) {
  if (zipf.size() % static_cast<std::size_t>(ranks) != 0)
    throw std::invalid_argument("dht: keyspace must be a multiple of ranks");
  if (zipf.size() > (std::size_t{1} << 31))
    throw std::invalid_argument("dht: keys must fit in 31 bits");
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(rank));
  std::vector<KvOp> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool is_get = rng.unit() < 0.9;
    std::int64_t key = zipf.draw(rng);
    if (!is_get) key += rank - dht_writer(key, ranks);
    ops.emplace_back(is_get, key);
  }
  return ops;
}

}  // namespace perfbench
