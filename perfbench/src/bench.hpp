#pragma once
// What every workload shares: the run's arguments, the result record it
// fills, the clocks, and the metric helpers of layers.cpp.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The start of main(); set-up time is measured from here.
  Clock::time_point start;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  /// Record one correctness check; a failed one is reported on stderr.
  void check(bool ok, const std::string& what);
};

[[nodiscard]] double seconds_since(Clock::time_point t0);
[[nodiscard]] double median(std::vector<double> v);
/// Exact sample quantile (nearest rank), q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Wall and CPU seconds of each timed phase of a run, and the wall
/// seconds of the reference sweep run just before it.
struct PhaseTimes {
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> ref;
};

/// Wall seconds of the reference sweep: a fixed float Jacobi sweep over a
/// private cache-resident array on each of 4 plain threads, written here
/// and calling no pdc code. It runs next to every timed phase, so dividing
/// a phase's time by it cancels the host's speed at that moment.
[[nodiscard]] double reference_seconds();

/// One repeatable unit of a workload's work. Only `run` is timed.
struct Phase {
  std::function<void()> prepare;  ///< before each run: reset the inputs
  std::function<void()> run;
  std::function<void()> verify;   ///< after each run: check the outputs
};

/// Runs the phase once as a warm-up, then again and again, timing each
/// run and the reference sweep before it, until `seconds` of timed runs
/// have passed (at least three).
PhaseTimes timed_phases(double seconds, const Phase& phase);

/// The end-to-end metrics setup_s, solve_rel (median of phase wall over
/// reference sweep), cpu_rel (median of phase CPU over reference sweep)
/// and peak_rss_mib; and the per-layer solve_s and cpu_s (medians in
/// seconds) and ref.sweep_ms.
void add_end_to_end(Result& res, double setup_s, const PhaseTimes& t);

/// One traced phase: start() clears the span buffers and turns tracing on,
/// stop() turns it off. add_metrics() then adds the per-layer metrics the
/// program's own spans and counters give for the phase, plus
/// obs.traced_solve_s; call it once every thread that traced has joined.
/// A dropped span marks the result incorrect. It also sets the metrics only
/// one workload measures (dht.op_p50_us, dht.op_p99_us, heat.seq_solve_s)
/// to 0; that workload overwrites them afterwards.
class TraceWindow {
 public:
  void start();
  void stop();
  void add_metrics(Result& res) const;

 private:
  Clock::time_point t0_;
  double wall_s_ = 0.0;
  std::map<std::string, std::uint64_t> before_, after_;
};

/// The timed microbenchmarks of every layer, at `ranks` message-passing
/// ranks and `threads` threads in all.
void add_microbenchmarks(Result& res, int ranks, int threads);

// Workload sizes, shared with the microbenchmarks that price their kernels.
inline constexpr std::size_t kHeatN = 512;
inline constexpr std::size_t kLifeRows = 4096;
inline constexpr std::size_t kLifeCols = 8192;
inline constexpr std::size_t kLifeTileRows = 16, kLifeTileWords = 8;

Result run_heat_hybrid(const Args& args);
Result run_life_threads(const Args& args);
Result run_dht_serve(const Args& args);

}  // namespace perfbench
