// The three benchmark workloads. Each runs in its own process: set up
// (several times, keeping the last), warm up, measure a timed window of
// closed-loop operations, then check every answer with the oracle.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dpbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and a short window: exercises every check fast; the
  /// numbers are not benchmark results.
  bool quick = false;
  /// Scratch directory for journals and the trace file (created, and the
  /// journals removed again, by the run).
  std::string work_dir = ".bench_build/dpbench-work";
};

struct RunReport {
  std::vector<std::string> failures;  // empty = every check passed
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Untraced runs fill the end-to-end metrics, traced runs the per-layer
  /// ones; `units` holds the unit of each.
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> units;
  /// Context lines printed before the result (run header, tail latency,
  /// scales, trace summary).
  std::vector<std::pair<std::string, std::string>> header;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = value;
    units[name] = unit;
  }
  void Note(const std::string& key, const std::string& value) {
    header.emplace_back(key, value);
  }
};

/// Names accepted by RunWorkload.
const std::vector<std::string>& WorkloadNames();

RunReport RunWorkload(const RunOptions& options);

}  // namespace dpbench
