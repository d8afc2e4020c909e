#pragma once
// Correctness checks made from outside the program: each recomputes a
// property of a workload's output with plain code written here, never by
// calling back into pdc. They run on every workload run, outside the
// timed phases; checks_test.cpp shows that each rejects a corrupted
// output.

#include <cstdint>

#include "pdc/life/engine.hpp"
#include "pdc/life/grid.hpp"
#include "pdc/stencil/heat.hpp"

namespace perfbench::checks {

/// FNV-1a-style digests of a whole field or board, so runs can be compared with
/// the first one without keeping a copy of it.
[[nodiscard]] std::uint64_t digest(const pdc::stencil::HeatField& f);
[[nodiscard]] std::uint64_t digest(const pdc::life::Grid& g);

// ---- heat_hybrid ----

/// Largest |k * (avg4 - cur)| over the interior: the delta one more
/// Jacobi step would make, from a plain loop over the returned field.
[[nodiscard]] double heat_residual(const pdc::stencil::HeatField& f,
                                   double conductivity);

/// Every interior cell lies in [lo, hi] (the discrete maximum principle).
[[nodiscard]] bool heat_within(const pdc::stencil::HeatField& f, float lo,
                               float hi);

/// Largest |f(r, c) - f(r, cols - 1 - c)|.
[[nodiscard]] double heat_mirror_error(const pdc::stencil::HeatField& f);

// ---- life_threads ----

/// Every row reads the same from the left as from the right.
[[nodiscard]] bool life_mirrored(const pdc::life::Grid& g);

/// Tiles per generation of a rows x cols board under `opt`: tiles are
/// opt.tile_rows rows by opt.tile_words 64-cell words.
[[nodiscard]] std::uint64_t life_tiles(std::size_t rows, std::size_t cols,
                                       const pdc::life::EngineOptions& opt);

/// Naive torus Life, one byte per cell and one neighbour count per cell.
[[nodiscard]] pdc::life::Grid naive_life(const pdc::life::Grid& start,
                                         int generations);

/// Cells where two boards of equal shape differ.
[[nodiscard]] std::size_t cells_differing(const pdc::life::Grid& a,
                                          const pdc::life::Grid& b);

// ---- dht_serve ----

/// A value encodes (key, version): the version in the low bits.
inline constexpr int kVersionBits = 24;
[[nodiscard]] inline std::int64_t dht_value(std::int64_t key,
                                            std::int64_t version) {
  return (key << kVersionBits) | version;
}
[[nodiscard]] inline std::int64_t dht_value_key(std::int64_t value) {
  return value >> kVersionBits;
}

/// A get of `key` must be found and carry `key` in its key field.
[[nodiscard]] inline bool dht_get_ok(std::int64_t key, bool found,
                                     std::int64_t value) {
  return found && dht_value_key(value) == key;
}

}  // namespace perfbench::checks
