// In-memory span recorder for the traced benchmark run. Spans are opened
// by the benchmark's own code around each call into a library layer
// (name, start, end, parent span, request id), buffered per thread, and
// written out once when the run ends. When disabled, Span is a no-op
// apart from one branch.

#ifndef SLAMPRED_E2EBENCH_TRACE_H_
#define SLAMPRED_E2EBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root.
  std::uint64_t request = 0;  ///< Shared by every span of one request.
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint32_t thread = 0;
};

/// Per-span-name aggregate: count, total and self time (duration minus
/// the time covered by child spans).
struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Tracer {
 public:
  static Tracer& Global();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Appends a finished span to the calling thread's buffer.
  void Record(const SpanRecord& span);

  /// Every recorded span (all threads), in no particular order. Call
  /// only after the recording threads have been joined.
  std::vector<SpanRecord> Collect() const;

  /// Per-name totals with self time, over Collect().
  std::map<std::string, SpanTotals> Totals() const;

  /// Writes the spans as JSON lines; returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

  std::uint64_t NextId();

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
  };
  Buffer& ThreadBuffer();

  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // Guarded by mutex_.
  std::atomic<std::uint64_t> next_id_{1};
};

/// Scoped span: opened at construction, recorded at destruction. Nested
/// spans on the same thread take the innermost open span as parent and
/// inherit its request id.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_request_ = 0;
};

}  // namespace e2ebench

#endif  // SLAMPRED_E2EBENCH_TRACE_H_
