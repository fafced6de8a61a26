// Measurement helpers for the release-path benchmark: clocks, order
// statistics, host counters read from /proc, and a tiny JSON writer.
#pragma once

#include <time.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dpbench {

/// Seconds on the steady clock since an arbitrary epoch.
double NowSeconds();
/// Seconds on clock `id` (clock_gettime).
double ClockSeconds(clockid_t id);
/// Sleeps until NowSeconds() >= t.
void SleepUntil(double t);
/// CPU seconds consumed by the calling thread.
double ThreadCpuSeconds();
/// CPU seconds consumed by the whole process (all threads).
double ProcessCpuSeconds();

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// The highest of p50, p90, p99, p99.9, ... that still has at least
/// `min_beyond` samples above it, with that sample count.
struct TailPercentile {
  double percentile = 0.0;  // e.g. 99.9
  double value = 0.0;
  size_t samples_beyond = 0;
};
TailPercentile HighestSupportedPercentile(const std::vector<double>& values,
                                          size_t min_beyond = 10);

/// Aggregate CPU jiffies of the host from /proc/stat ("cpu" line).
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostCpu ReadHostCpu();
/// Steal share of host CPU time between two readings (0 when unreadable).
double StealShare(const HostCpu& begin, const HostCpu& end);

/// Peak resident set of this process in MiB (getrusage).
double PeakRssMiB();

/// Total size in bytes of the regular files under `dir` (recursive).
uint64_t DirBytes(const std::string& dir);

/// Flat JSON object builder: {"k": v, ...}. Numbers are printed with
/// full precision.
class JsonObject {
 public:
  void Number(const std::string& key, double value);
  void Integer(const std::string& key, int64_t value);
  void Bool(const std::string& key, bool value);
  void String(const std::string& key, const std::string& value);
  /// Inserts an already-rendered JSON value.
  void Raw(const std::string& key, const std::string& json);
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonEscape(const std::string& s);
std::string FormatDouble(double v);

}  // namespace dpbench
