#include "measure.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <mutex>
#include <string>

namespace e2ebench {
namespace {

std::atomic<double> g_run_peak_mib{0.0};

void FoldIntoRunPeak(double mib) {
  double seen = g_run_peak_mib.load();
  while (mib > seen && !g_run_peak_mib.compare_exchange_weak(seen, mib)) {
  }
}

// VmHWM of /proc/self/status in MiB (0 when unreadable).
double ReadVmHwmMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

bool WriteClearRefs() {
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) return false;
  const bool ok = std::fputs("5", file) >= 0;
  return std::fclose(file) == 0 && ok;
}

}  // namespace

double WallSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

bool RssMeter::ResetSupported() {
  static const bool supported = WriteClearRefs();
  return supported;
}

double RssMeter::PeakMib() {
  const double mib = ReadVmHwmMib();
  FoldIntoRunPeak(mib);
  return mib;
}

void RssMeter::ResetPeak() {
  FoldIntoRunPeak(ReadVmHwmMib());
  if (ResetSupported()) WriteClearRefs();
}

double RssMeter::RunPeakMib() {
  FoldIntoRunPeak(ReadVmHwmMib());
  return g_run_peak_mib.load();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1,
                                static_cast<std::size_t>(rank) - 1);
  return values[index];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void Metrics::SetLayer(const std::string& prefix, const LayerSample& sample) {
  Set(prefix + ".wall_s", sample.wall_s, "s");
  Set(prefix + ".cpu_s", sample.cpu_s, "s");
  Set(prefix + ".peak_rss_mib", sample.peak_rss_mib, "MiB");
}

double Metrics::Get(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.value;
  }
  return 0.0;
}

bool Checks::Expect(bool ok, const std::string& what) {
  ++count_;
  if (!ok) {
    failures_.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

std::string JsonQuote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace e2ebench
