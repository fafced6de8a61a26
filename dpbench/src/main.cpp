// dpbench: one benchmark of the DP release path.
//
//   dpbench --workload cached_routed|fresh_direct|grouped_local
//           --seed N --seconds S --trace 0|1
//           [--quick] [--work-dir DIR] [--git-sha SHA]
//   dpbench --selftest
//
// Prints a run header ("# key: value" lines) and, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics untraced, the per-layer metrics with --trace 1.
// Exits 1 when any operation failed or any correctness check fails.
// Normally driven by run.py.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util.h"
#include "workloads.h"

#ifndef DPBENCH_BUILD_TYPE
#define DPBENCH_BUILD_TYPE "unknown"
#endif
#ifndef DPBENCH_COMPILER
#define DPBENCH_COMPILER "unknown"
#endif

namespace dpbench {
int RunSelfTest();
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dpbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--quick] [--work-dir DIR] [--git-sha SHA]\n"
               "       dpbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  dpbench::RunOptions options;
  std::string git_sha = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(Usage());
      }
      return argv[++i];
    };
    if (arg == "--selftest") return dpbench::RunSelfTest();
    if (arg == "--workload") {
      options.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--git-sha") {
      git_sha = value();
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return Usage();
    }
  }
  bool known = false;
  for (const std::string& name : dpbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!have_workload || !known || !(options.seconds > 0.0)) return Usage();

  std::printf("# workload: %s\n", options.workload.c_str());
  std::printf("# seed: %llu\n", static_cast<unsigned long long>(options.seed));
  std::printf("# nproc: %ld\n", sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("# compiler: %s\n", DPBENCH_COMPILER);
  std::printf("# build_type: %s\n", DPBENCH_BUILD_TYPE);
  std::printf("# git_sha: %s\n", git_sha.c_str());
  std::printf("# trace: %d%s\n", options.trace ? 1 : 0,
              options.quick ? " (quick mode: not a benchmark result)" : "");
  std::fflush(stdout);

  dpbench::RunReport report = dpbench::RunWorkload(options);
  for (const auto& [key, value] : report.header) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& failure : report.failures) {
    std::printf("# FAILED CHECK: %s\n", failure.c_str());
  }

  dpbench::JsonObject metrics;
  for (const auto& [name, value] : report.metrics) {
    dpbench::JsonObject m;
    m.Number("value", value);
    m.String("unit", report.units[name]);
    metrics.Raw(name, m.Render());
  }
  const bool correct = report.failures.empty();
  dpbench::JsonObject out;
  out.Bool("correct", correct);
  out.Integer("attempted", static_cast<int64_t>(report.attempted));
  out.Integer("failed", static_cast<int64_t>(report.failed));
  out.Raw("metrics", metrics.Render());
  std::printf("%s\n", out.Render().c_str());
  return correct ? 0 : 1;
}
