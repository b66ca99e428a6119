// omega_perfbench — runs one workload of the repository benchmark and
// prints its record as one JSON line (every metric, end-to-end and
// per-layer, plus the virtual-time fingerprint). perfbench/run.py builds
// this binary, picks the metrics BENCHMARK.json names, and checks traced
// against untraced runs.
//
//   omega_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "measure.hpp"

int main(int argc, char** argv) {
  std::string workload;
  perfbench::run_options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opts.traced = value == "1";
    } else {
      std::cerr << "omega_perfbench: unknown option " << key << "\n";
      return 2;
    }
  }
  if (opts.seconds <= 0) {
    std::cerr << "omega_perfbench: --seconds must be positive\n";
    return 2;
  }
  try {
    perfbench::record rec;
    if (workload == "sim_steady_300") {
      rec = perfbench::run_sim_steady_300(opts);
    } else if (workload == "sim_churn_120") {
      rec = perfbench::run_sim_churn_120(opts);
    } else if (workload == "live_udp_256") {
      rec = perfbench::run_live_udp_256(opts);
    } else {
      std::cerr << "omega_perfbench: unknown workload '" << workload << "'\n";
      return 2;
    }
    std::cout << rec.json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "omega_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
