#include "bench_util/harness.h"

#include <cstdio>
#include <thread>

#include "common/env.h"

namespace upa::bench {

BenchEnv BenchEnv::FromEnv() {
  BenchEnv env;
  env.orders = static_cast<size_t>(EnvInt("UPA_ORDERS", 5000));
  env.ml_points = static_cast<size_t>(EnvInt("UPA_ML_POINTS", 20000));
  env.sample_n = static_cast<size_t>(EnvInt("UPA_SAMPLE_N", 1000));
  env.trials = static_cast<size_t>(EnvInt("UPA_TRIALS", 5));
  env.runs = static_cast<size_t>(EnvInt("UPA_RUNS", 10));
  env.seed = static_cast<uint64_t>(EnvInt("UPA_SEED", 42));
  env.threads = static_cast<size_t>(EnvInt("UPA_THREADS", 0));
  return env;
}

queries::SuiteConfig BenchEnv::MakeSuiteConfig(uint64_t seed_offset) const {
  queries::SuiteConfig cfg;
  cfg.tpch.num_orders = orders;
  cfg.tpch.seed = seed + seed_offset;
  cfg.ml.num_points = ml_points;
  cfg.ml.seed = seed + seed_offset + 7777;
  cfg.threads = threads;
  cfg.engine_partitions = 4;
  return cfg;
}

core::UpaConfig BenchEnv::MakeUpaConfig() const {
  core::UpaConfig cfg;
  cfg.sample_n = sample_n;
  cfg.epsilon = 0.1;  // the paper's evaluation setting
  return cfg;
}

void PrintBanner(const std::string& experiment, const BenchEnv& env) {
  std::printf(
      "############################################################\n"
      "# %s\n"
      "# orders=%zu ml_points=%zu sample_n=%zu trials=%zu runs=%zu seed=%llu\n"
      "############################################################\n",
      experiment.c_str(), env.orders, env.ml_points, env.sample_n, env.trials,
      env.runs, static_cast<unsigned long long>(env.seed));
  std::fflush(stdout);
}

std::string HostJson() {
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + compiler + "\", \"build_type\": \"" +
         UPA_BUILD_TYPE + "\", \"git_sha\": \"" + UPA_GIT_SHA + "\"}";
}

}  // namespace upa::bench
