// Measurement plumbing shared by the workloads: phase timing, the
// end-to-end metrics, the traced phase that reads the program's spans and
// counters, and the timed microbenchmarks of each layer.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "inputs.hpp"
#include "pdc/core/team.hpp"
#include "pdc/life/packed_grid.hpp"
#include "pdc/mp/comm.hpp"
#include "pdc/obs/obs.hpp"
#include "pdc/stencil/heat.hpp"
#include "pdc/stencil/tile.hpp"

namespace perfbench {

namespace obs = pdc::obs;

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace {

/// User + system CPU time of the whole process, all threads.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, i > 0 ? i - 1 : 0)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double reference_seconds() {
  constexpr int kThreads = 4, kRows = 128, kCols = 512, kSweeps = 150;
  std::vector<std::thread> pool;
  const auto t0 = Clock::now();
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([] {
      // A private float Jacobi sweep, 512 KiB per thread (cache resident).
      std::vector<float> a(kRows * kCols, 0.5f), b(kRows * kCols, 0.0f);
      a[kCols + 1] = 1.0f;
      for (int s = 0; s < kSweeps; ++s) {
        for (int r = 1; r + 1 < kRows; ++r)
          for (int c = 1; c + 1 < kCols; ++c) {
            const int i = r * kCols + c;
            b[i] = a[i] + 0.2f * (0.25f * (a[i - 1] + a[i + 1] +
                                           a[i - kCols] + a[i + kCols]) -
                                  a[i]);
          }
        a.swap(b);
      }
      volatile float keep = a[kCols + 2];  // the sweeps are not dead code
      (void)keep;
    });
  for (auto& th : pool) th.join();
  return seconds_since(t0);
}

PhaseTimes timed_phases(double seconds, const Phase& phase) {
  const auto once = [&](PhaseTimes* t) {
    if (phase.prepare) phase.prepare();
    const double ref = reference_seconds();
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    phase.run();
    const double wall = seconds_since(t0);
    const double cpu = cpu_seconds() - c0;
    if (phase.verify) phase.verify();
    if (t != nullptr) {
      t->ref.push_back(ref);
      t->wall.push_back(wall);
      t->cpu.push_back(cpu);
    }
    return wall;
  };
  once(nullptr);  // warm-up: caches, page faults, pooled workers
  PhaseTimes t;
  double spent = 0.0;
  while (spent < seconds || t.wall.size() < 3) spent += once(&t);
  return t;
}

void add_end_to_end(Result& res, double setup_s, const PhaseTimes& t) {
  std::vector<double> wall_rel, cpu_rel;
  for (std::size_t i = 0; i < t.wall.size(); ++i) {
    wall_rel.push_back(t.wall[i] / t.ref[i]);
    cpu_rel.push_back(t.cpu[i] / t.ref[i]);
  }
  res.end_to_end["setup_s"] = {setup_s, "s"};
  res.end_to_end["solve_rel"] = {median(wall_rel), "x"};
  res.end_to_end["cpu_rel"] = {median(cpu_rel), "x"};
  res.end_to_end["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
  res.per_layer["solve_s"] = {median(t.wall), "s"};
  res.per_layer["cpu_s"] = {median(t.cpu), "s"};
  res.per_layer["ref.sweep_ms"] = {1e3 * median(t.ref), "ms"};
  std::cerr << "perfbench: " << t.wall.size() << " timed phases, wall s "
            << "min " << quantile(t.wall, 0.0) << " q1 " << quantile(t.wall, 0.25)
            << " median " << median(t.wall) << " q3 " << quantile(t.wall, 0.75)
            << " max " << quantile(t.wall, 1.0) << "; reference sweep ms "
            << 1e3 * median(t.ref) << "\n";
}

// ---- the traced phase ----

namespace {

/// Self time (span duration minus the part its child spans cover) summed
/// per span name over every thread, with span counts.
struct SpanTotals {
  std::map<std::string, double> self_ns;
  std::map<std::string, std::uint64_t> count;
  std::uint64_t dropped = 0;
};

SpanTotals span_totals(const std::vector<obs::ThreadTrace>& threads) {
  SpanTotals out;
  for (const auto& th : threads) {
    out.dropped += th.dropped;
    std::vector<obs::TraceEvent> ev = th.events;
    // Parents before children: earlier start first, longer first on ties.
    std::sort(ev.begin(), ev.end(), [](const auto& a, const auto& b) {
      return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                      : a.dur_ns > b.dur_ns;
    });
    std::vector<double> self(ev.size());
    std::vector<std::size_t> open;  // indices of enclosing spans
    for (std::size_t i = 0; i < ev.size(); ++i) {
      self[i] = static_cast<double>(ev[i].dur_ns);
      while (!open.empty() && ev[open.back()].start_ns +
                                      ev[open.back()].dur_ns <=
                                  ev[i].start_ns)
        open.pop_back();
      if (!open.empty()) self[open.back()] -= static_cast<double>(ev[i].dur_ns);
      open.push_back(i);
    }
    for (std::size_t i = 0; i < ev.size(); ++i) {
      out.self_ns[ev[i].name] += self[i];
      out.count[ev[i].name] += 1;
    }
  }
  return out;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void TraceWindow::start() {
  obs::clear_trace();
  obs::set_trace_capacity(std::size_t{1} << 24);
  before_ = obs::metrics_snapshot().counters;
  t0_ = Clock::now();
  obs::set_tracing_enabled(true);
}

void TraceWindow::stop() {
  obs::set_tracing_enabled(false);
  wall_s_ = seconds_since(t0_);
  after_ = obs::metrics_snapshot().counters;
}

void TraceWindow::add_metrics(Result& res) const {
  const auto delta = [&](const char* name) {
    const auto a = after_.find(name);
    const auto b = before_.find(name);
    return (a == after_.end() ? 0 : a->second) -
           (b == before_.end() ? 0 : b->second);
  };
  const SpanTotals s = span_totals(obs::trace_threads());
  res.check(s.dropped == 0, "the traced phase dropped " +
                                std::to_string(s.dropped) + " spans");
  const auto self_ms = [&](const char* name) {
    const auto it = s.self_ns.find(name);
    return it == s.self_ns.end() ? 0.0 : it->second * 1e-6;
  };
  const auto count = [&](const char* name) {
    const auto it = s.count.find(name);
    return it == s.count.end() ? std::uint64_t{0} : it->second;
  };
  auto& m = res.per_layer;
  m["obs.traced_solve_s"] = {wall_s_, "s"};
  m["dht.op_p50_us"] = {0.0, "us"};
  m["dht.op_p99_us"] = {0.0, "us"};
  m["heat.seq_solve_s"] = {0.0, "s"};

  const std::uint64_t step_spans = count("heat.step") + count("life.gen");
  m["stencil.step_self_us"] = {
      step_spans == 0 ? 0.0
                      : 1e3 * (self_ms("heat.step") + self_ms("life.gen")) /
                            static_cast<double>(step_spans),
      "us"};
  m["stencil.steps"] = {static_cast<double>(delta("stencil.steps")), "count"};
  m["stencil.tiles_computed"] = {
      static_cast<double>(delta("stencil.tiles_computed")), "count"};
  m["stencil.tiles_skipped"] = {
      static_cast<double>(delta("stencil.tiles_skipped")), "count"};
  m["stencil.halo_words"] = {static_cast<double>(delta("stencil.halo_words")),
                             "words"};
  m["stencil.steal_ratio"] = {
      ratio(delta("stencil.steals"), delta("stencil.steal_attempts")),
      "ratio"};

  m["mp.allreduce_self_ms"] = {self_ms("mp.allreduce"), "ms"};
  m["mp.recv_self_ms"] = {self_ms("mp.recv"), "ms"};
  m["mp.messages"] = {static_cast<double>(delta("mp.messages")), "count"};
  m["mp.payload_words"] = {static_cast<double>(delta("mp.payload_words")),
                           "words"};

  const std::uint64_t gets = delta("dht.client.gets");
  const std::uint64_t puts = delta("dht.client.puts");
  const std::uint64_t local = delta("dht.client.local_ops");
  m["dht.ops_per_batch"] = {
      ratio(gets + puts - local, delta("dht.client.batches")), "ops/batch"};
  m["dht.dedup_ratio"] = {ratio(delta("dht.client.deduped_gets"), gets),
                          "ratio"};
  m["dht.local_ops"] = {static_cast<double>(local), "count"};
  m["dht.serve_batch_self_ms"] = {self_ms("dht.serve_batch"), "ms"};
}

// ---- microbenchmarks ----

namespace {

/// Per-thread nanoseconds and work units of one team-wide measurement.
struct TeamTiming {
  double sum_ns = 0.0;  ///< summed over threads
  double max_ns = 0.0;  ///< slowest thread
  double units = 0.0;   ///< summed over threads
};

/// `threads` threads split items [0, n) into near-equal blocks; each runs
/// `work(lo, hi)` on its block once untimed, then `reps` times timed.
/// `work` returns the units it processed.
TeamTiming time_team(
    int threads, int reps, std::size_t n,
    const std::function<double(std::size_t, std::size_t)>& work) {
  std::vector<double> ns(static_cast<std::size_t>(threads));
  std::vector<double> units(static_cast<std::size_t>(threads));
  pdc::core::Team::run(threads, [&](pdc::core::TeamContext& tc) {
    const auto [lo, hi] = tc.block_range(0, n);
    (void)work(lo, hi);
    tc.barrier();
    const auto t0 = Clock::now();
    double u = 0.0;
    for (int i = 0; i < reps; ++i) u += work(lo, hi);
    ns[static_cast<std::size_t>(tc.rank())] = 1e9 * seconds_since(t0);
    units[static_cast<std::size_t>(tc.rank())] = u;
  });
  TeamTiming t;
  for (std::size_t i = 0; i < ns.size(); ++i) {
    t.sum_ns += ns[i];
    t.max_ns = std::max(t.max_ns, ns[i]);
    t.units += units[i];
  }
  return t;
}

/// HeatWorkload::step_tile over the heat_hybrid grid, tiles dealt out in
/// blocks: ns per cell update per thread, and computed GB/s (4 bytes read
/// and 4 written per cell, neighbours assumed cached).
void heat_kernel(Result& res, int threads) {
  const pdc::stencil::HeatField src = heat_input(kHeatN, 7);
  pdc::stencil::HeatField dst = src;
  const pdc::stencil::HeatOptions opt;
  const pdc::stencil::HeatWorkload w{opt.conductivity};
  const pdc::stencil::TileMap tm(kHeatN, kHeatN, opt.tile_rows,
                                 opt.tile_cols);
  std::vector<double> ns_cell, gbps;
  for (int rep = 0; rep < 5; ++rep) {
    const TeamTiming t =
        time_team(threads, 40, tm.count(), [&](std::size_t lo, std::size_t hi) {
      double cells = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        const auto b = tm.bounds(i);
        (void)w.step_tile(src, dst, b);
        cells += static_cast<double>(b.rows() * b.cols());
      }
      return cells;
    });
    ns_cell.push_back(t.sum_ns / t.units);
    gbps.push_back(8.0 * t.units / t.max_ns);
  }
  res.per_layer["heat.kernel_ns_per_cell"] = {median(ns_cell), "ns"};
  res.per_layer["heat.kernel_computed_gbps"] = {median(gbps), "GB/s"};
}

/// PackedGrid::step_tile_into over the life_threads board with the
/// workload's tiles: ps per cell update per thread.
void life_kernel(Result& res, int threads) {
  pdc::life::PackedGrid src(life_input(kLifeRows, kLifeCols, 7));
  src.sync_row_ghosts(0, src.rows());
  src.sync_halo_rows();
  pdc::life::PackedGrid dst(kLifeRows, kLifeCols);
  const pdc::stencil::TileMap tm(kLifeRows, src.words_per_row(),
                                 kLifeTileRows, kLifeTileWords);
  std::vector<double> ps_cell;
  for (int rep = 0; rep < 5; ++rep) {
    const TeamTiming t =
        time_team(threads, 20, tm.count(), [&](std::size_t lo, std::size_t hi) {
      double cells = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        const auto b = tm.bounds(i);
        (void)src.step_tile_into(dst, b.r0, b.r1, b.c0, b.c1);
        cells += 64.0 * static_cast<double>(b.rows() * b.cols());
      }
      return cells;
    });
    ps_cell.push_back(1e3 * t.sum_ns / t.units);
  }
  res.per_layer["life.kernel_ps_per_cell"] = {median(ps_cell), "ps"};
}

/// Bytes of the last-level cache, from sysfs (0 when unknown).
std::size_t llc_bytes() {
  std::size_t best = 0;
  for (int i = 0; i < 8; ++i) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(i) + "/size");
    std::string s;
    if (!(in >> s) || s.empty()) continue;
    std::size_t mult = 1;
    if (s.back() == 'K') mult = std::size_t{1} << 10;
    if (s.back() == 'M') mult = std::size_t{1} << 20;
    best = std::max(best, std::stoul(s) * mult);
  }
  return best;
}

/// STREAM-like copy between two arrays of at least 4x the LLC each, every
/// thread copying its own block: GB/s counting the read and the write.
void mem_copy(Result& res, int threads) {
  const std::size_t llc = llc_bytes();
  const std::size_t bytes =
      std::max<std::size_t>(4 * llc, std::size_t{64} << 20);
  const std::size_t n = bytes / sizeof(std::uint64_t);
  const std::unique_ptr<std::uint64_t[]> a(new std::uint64_t[n]);
  const std::unique_ptr<std::uint64_t[]> b(new std::uint64_t[n]);
  pdc::core::Team::run(threads, [&](pdc::core::TeamContext& tc) {
    const auto [lo, hi] = tc.block_range(0, n);  // first touch
    std::fill(a.get() + lo, a.get() + hi, lo);
    std::fill(b.get() + lo, b.get() + hi, 0);
  });
  std::vector<double> gbps;
  for (int rep = 0; rep < 5; ++rep) {
    const TeamTiming t =
        time_team(threads, 1, n, [&](std::size_t lo, std::size_t hi) {
      std::memcpy(b.get() + lo, a.get() + lo, (hi - lo) * sizeof(*a.get()));
      return 2.0 * static_cast<double>((hi - lo) * sizeof(*a.get()));
    });
    gbps.push_back(t.units / t.max_ns);
  }
  std::cerr << "perfbench: mem.copy over 2 arrays of " << (bytes >> 20)
            << " MiB, LLC " << (llc >> 20) << " MiB\n";
  res.per_layer["mem.copy_gbps"] = {median(gbps), "GB/s"};
}

/// core::Team: one pooled region launch, and one TeamContext::barrier.
void team_runtime(Result& res, int threads) {
  constexpr int kRegions = 2000, kBarriers = 10000;
  pdc::core::Team::run(threads, [](pdc::core::TeamContext&) {});
  auto t0 = Clock::now();
  for (int i = 0; i < kRegions; ++i)
    pdc::core::Team::run(threads, [](pdc::core::TeamContext&) {});
  res.per_layer["core.region_us"] = {1e6 * seconds_since(t0) / kRegions,
                                     "us"};
  double barrier_s = 0.0;
  pdc::core::Team::run(threads, [&](pdc::core::TeamContext& tc) {
    tc.barrier();
    const auto b0 = Clock::now();
    for (int i = 0; i < kBarriers; ++i) tc.barrier();
    if (tc.rank() == 0) barrier_s = seconds_since(b0);
  });
  res.per_layer["core.barrier_us"] = {1e6 * barrier_s / kBarriers, "us"};
}

/// mp over the inproc wire: one allreduce across `ranks`, and one
/// send/recv round trip between rank 0 and its neighbour (itself when
/// alone).
void messaging(Result& res, int ranks) {
  constexpr int kAllreduces = 5000, kRoundTrips = 5000;
  double allreduce_s = 0.0, pingpong_s = 0.0;
  pdc::mp::Communicator comm(ranks);
  comm.run([&](pdc::mp::RankContext& ctx) {
    ctx.barrier();
    auto t0 = Clock::now();
    for (int i = 0; i < kAllreduces; ++i)
      (void)ctx.allreduce(i, pdc::mp::ReduceOp::kMax);
    if (ctx.rank() == 0) allreduce_s = seconds_since(t0);
    ctx.barrier();
    const int partner = 1 % ctx.size();
    t0 = Clock::now();
    if (ctx.rank() == 0) {
      for (int i = 0; i < kRoundTrips; ++i) {
        ctx.send(partner, 1, {i});
        (void)ctx.recv(partner, 1);
      }
      pingpong_s = seconds_since(t0);
    } else if (ctx.rank() == partner) {
      for (int i = 0; i < kRoundTrips; ++i) ctx.send(0, 1, ctx.recv(0, 1).data);
    }
  });
  res.per_layer["mp.allreduce_us"] = {1e6 * allreduce_s / kAllreduces, "us"};
  res.per_layer["mp.pingpong_us"] = {1e6 * pingpong_s / kRoundTrips, "us"};
}

}  // namespace

void add_microbenchmarks(Result& res, int ranks, int threads) {
  heat_kernel(res, threads);
  life_kernel(res, threads);
  mem_copy(res, threads);
  team_runtime(res, threads);
  messaging(res, ranks);
}

}  // namespace perfbench
