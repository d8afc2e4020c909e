// perfbench: runs one workload of the pdc benchmark and prints, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics (the end-to-end metrics, or with
// --trace 1 the per-layer ones). run.py builds and launches it.
//
//   perfbench --workload heat_hybrid|life_threads|dht_serve --seed N
//             --seconds S --trace 0|1
//
// Set-up time is measured from the start of main().

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Metric;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload heat_hybrid|life_threads|"
               "dht_serve --seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.start = perfbench::Clock::now();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = val;
      } else if (key == "--seed") {
        args.seed = std::stoull(val);
      } else if (key == "--seconds") {
        args.seconds = std::stod(val);
      } else if (key == "--trace") {
        args.trace = std::stoi(val) != 0;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key);
    }
  }
  if (argc % 2 != 1) usage("options come in pairs");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");

  perfbench::Result res;
  try {
    if (args.workload == "heat_hybrid")
      res = perfbench::run_heat_hybrid(args);
    else if (args.workload == "life_threads")
      res = perfbench::run_life_threads(args);
    else if (args.workload == "dht_serve")
      res = perfbench::run_dht_serve(args);
    else
      usage("unknown workload '" + args.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  const std::map<std::string, Metric>& metrics =
      args.trace ? res.per_layer : res.end_to_end;

  std::string out = "{\"correct\": ";
  out += res.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "perfbench: " << name << " is not finite\n";
      return 1;
    }
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
  return 0;
}
