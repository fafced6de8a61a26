#include "util.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

namespace dpbench {

double ClockSeconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void SleepUntil(double t) {
  for (double now = NowSeconds(); now < t; now = NowSeconds()) {
    std::this_thread::sleep_for(std::chrono::duration<double>(t - now));
  }
}

double NowSeconds() { return ClockSeconds(CLOCK_MONOTONIC); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(values.size() - 1, lo + 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

TailPercentile HighestSupportedPercentile(const std::vector<double>& values,
                                          size_t min_beyond) {
  TailPercentile out;
  const double n = static_cast<double>(values.size());
  // 50, 90, 99, 99.9, 99.99, ...: keep the last whose tail holds enough.
  for (double tail = 0.5; tail >= 1e-9; tail = (tail == 0.5 ? 0.1 : tail / 10)) {
    double beyond = n * tail;
    if (beyond < static_cast<double>(min_beyond)) break;
    out.percentile = 100.0 * (1.0 - tail);
    out.samples_beyond = static_cast<size_t>(std::floor(beyond));
  }
  if (out.percentile > 0.0) {
    out.value = Quantile(values, out.percentile / 100.0);
  }
  return out;
}

HostCpu ReadHostCpu() {
  HostCpu cpu;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return cpu;
  // user nice system idle iowait irq softirq steal (guest fields are
  // already folded into user/nice).
  uint64_t fields[8] = {};
  for (uint64_t& f : fields) {
    if (!(in >> f)) return HostCpu{};
  }
  for (uint64_t f : fields) cpu.total += f;
  cpu.steal = fields[7];
  return cpu;
}

double StealShare(const HostCpu& begin, const HostCpu& end) {
  if (end.total <= begin.total) return 0.0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB → MiB
}

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  if (!fs::exists(dir, ec)) return 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

std::string JsonEscape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void JsonObject::Number(const std::string& key, double value) {
  fields_.emplace_back(key, FormatDouble(value));
}
void JsonObject::Integer(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
}
void JsonObject::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
}
void JsonObject::String(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, JsonEscape(value));
}
void JsonObject::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
}

std::string JsonObject::Render() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out << ", ";
    out << JsonEscape(fields_[i].first) << ": " << fields_[i].second;
  }
  out << "}";
  return out.str();
}

}  // namespace dpbench
