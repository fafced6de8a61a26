// Shared experiment harness for the bench/ binaries.
//
// Every experiment reads its scale knobs from the environment so the
// paper-scale versions are one shell variable away (defaults finish in
// seconds on a laptop):
//   UPA_ORDERS     TPC-H scale driver (default 5000 orders → ~13k lineitems)
//   UPA_ML_POINTS  ML dataset size (default 20000)
//   UPA_SAMPLE_N   UPA sample size n (default 1000)
//   UPA_TRIALS     trials per query for RMSE-style experiments (default 5)
//   UPA_RUNS       runs per query for timing experiments (default 10)
//   UPA_SEED       master seed (default 42)
//   UPA_THREADS    engine worker threads (default: hardware)
#pragma once

#include <cstdint>
#include <string>

#include "queries/suite.h"

namespace upa::bench {

struct BenchEnv {
  size_t orders = 5000;
  size_t ml_points = 20000;
  size_t sample_n = 1000;
  size_t trials = 5;
  size_t runs = 10;
  uint64_t seed = 42;
  size_t threads = 0;

  static BenchEnv FromEnv();

  /// Suite config at this scale (seed offsets allow independent datasets
  /// per trial).
  queries::SuiteConfig MakeSuiteConfig(uint64_t seed_offset = 0) const;

  /// UPA config matching the paper's evaluation setup (ε = 0.1, n).
  core::UpaConfig MakeUpaConfig() const;
};

/// Prints the standard experiment banner (experiment id, scales, seed).
void PrintBanner(const std::string& experiment, const BenchEnv& env);

/// The host header every BENCH_*.json carries, as one JSON object:
/// {"nproc", "compiler", "build_type", "git_sha"}. The build type and the
/// commit (`git describe --always --dirty`) are recorded when CMake
/// configures the build.
std::string HostJson();

}  // namespace upa::bench
