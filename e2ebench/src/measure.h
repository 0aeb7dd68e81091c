// Measurement primitives of the end-to-end benchmark: clocks, measured
// peak memory (VmHWM), percentiles, and the metric sink the benchmark
// prints. Everything here observes the library from outside — no
// library code is instrumented.

#ifndef SLAMPRED_E2EBENCH_MEASURE_H_
#define SLAMPRED_E2EBENCH_MEASURE_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

/// Seconds on the steady clock since an arbitrary process-wide epoch.
double WallSeconds();

/// CPU seconds consumed by the whole process (all threads).
double ProcessCpuSeconds();

/// Measured resident-set high-water mark. ResetPeak() folds the current
/// VmHWM into the run-wide maximum and then resets the kernel's mark to
/// the current RSS (writes "5" to /proc/self/clear_refs), so a PeakMib()
/// read after a call is that call's own peak.
class RssMeter {
 public:
  /// True when /proc/self/clear_refs accepted the reset (checked once).
  static bool ResetSupported();
  /// Current VmHWM in MiB (folds it into the run maximum too).
  static double PeakMib();
  /// Folds the current VmHWM into the run maximum, then resets it.
  static void ResetPeak();
  /// Largest VmHWM seen over the whole run, including now.
  static double RunPeakMib();
};

/// Wall time, CPU time and measured peak RSS of one call into a layer.
struct LayerSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mib = 0.0;
};

/// Runs `fn` and measures it as a LayerSample (resets VmHWM first).
template <typename Fn>
LayerSample MeasureLayer(Fn&& fn) {
  RssMeter::ResetPeak();
  const double wall0 = WallSeconds();
  const double cpu0 = ProcessCpuSeconds();
  fn();
  LayerSample sample;
  sample.wall_s = WallSeconds() - wall0;
  sample.cpu_s = ProcessCpuSeconds() - cpu0;
  sample.peak_rss_mib = RssMeter::PeakMib();
  return sample;
}

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Ordered name → (value, unit) sink. Set() overwrites an existing name
/// in place, so the print order is the order of first assignment.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Layer sample as `<prefix>.wall_s`, `.cpu_s`, `.peak_rss_mib`.
  void SetLayer(const std::string& prefix, const LayerSample& sample);
  double Get(const std::string& name) const;

  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Correctness ledger: every output check the run makes, and which ones
/// failed. A failed check fails the run.
class Checks {
 public:
  /// Records a check; returns `ok` so callers can branch on it.
  bool Expect(bool ok, const std::string& what);
  bool all_ok() const { return failures_.empty(); }
  std::size_t count() const { return count_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::size_t count_ = 0;
  std::vector<std::string> failures_;
};

/// JSON string literal of `text` (quotes included).
std::string JsonQuote(const std::string& text);

/// Shortest round-trip decimal form of `value` ("null" when not finite).
std::string JsonNumber(double value);

}  // namespace e2ebench

#endif  // SLAMPRED_E2EBENCH_MEASURE_H_
