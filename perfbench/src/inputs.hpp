#pragma once
// Seeded inputs of the three workloads. The program receives only what
// these functions return, and the same seed always gives the same inputs.
// The generators live in the benchmark, not in pdc, so a change to the
// program cannot change what it is measured on.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pdc/life/grid.hpp"
#include "pdc/stencil/heat.hpp"

namespace perfbench {

/// splitmix64: the seed stream behind every generator here.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : x_(seed) {}
  std::uint64_t next() {
    x_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t x_;
};

/// heat_hybrid: an n x n plate whose top edge is held at 1 and the other
/// three edges at 0. The interior starts cold, at uniform random
/// temperatures in [0, 0.01), mirrored left to right, so the exact solution
/// is mirror symmetric and every temperature stays within [0, 1].
pdc::stencil::HeatField heat_input(std::size_t n, std::uint64_t seed);
/// Rewrites every cell of `f`, halo ring included, with the input of
/// heat_input(f.rows(), seed), so a run can be reset without a second field.
void fill_heat_input(pdc::stencil::HeatField& f, std::uint64_t seed);

/// life_threads: a rows x cols torus. The top half holds a random soup of
/// density 1/2, mirrored left to right; the bottom half is empty. Life
/// keeps the mirror symmetry on a torus, generation after generation.
pdc::life::Grid life_input(std::size_t rows, std::size_t cols,
                           std::uint64_t seed);
/// Rewrites every cell of `g` with the input of life_input(g.rows(),
/// g.cols(), seed), so a run can be reset without a second board.
void fill_life_input(pdc::life::Grid& g, std::uint64_t seed);

/// One op of a dht_serve caller's stream, packed in 32 bits (the key,
/// below 2^31, and whether the op is a get) so the streams stay small
/// beside the program's own memory.
class KvOp {
 public:
  KvOp(bool is_get, std::int64_t key)
      : bits_(static_cast<std::uint32_t>(key) << 1 | (is_get ? 1U : 0U)) {}
  [[nodiscard]] bool is_get() const { return (bits_ & 1U) != 0; }
  [[nodiscard]] std::int64_t key() const { return bits_ >> 1; }

 private:
  std::uint32_t bits_;
};

/// Zipf(theta) over key indices {0, ..., n-1}, 0 the hottest, by inverse
/// CDF. The table is shared read-only by every rank's stream.
class ZipfTable {
 public:
  ZipfTable(std::size_t n, double theta);
  [[nodiscard]] std::int64_t draw(Rng& rng) const;
  [[nodiscard]] std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// dht_serve: `n` ops of rank `rank` out of `ranks`, 90% gets and 10%
/// puts, keys Zipf(0.99) over the table's keyspace (a multiple of
/// `ranks`). A put's key is moved within its group of `ranks` keys to one
/// this rank writes (key % ranks == rank), so every key has one writer.
std::vector<KvOp> dht_stream(int rank, int ranks, std::size_t n,
                             const ZipfTable& zipf, std::uint64_t seed);

/// Writer rank of a dht_serve key.
[[nodiscard]] inline int dht_writer(std::int64_t key, int ranks) {
  return static_cast<int>(key % ranks);
}

}  // namespace perfbench
