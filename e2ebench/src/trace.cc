#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "measure.h"

namespace e2ebench {
namespace {

thread_local std::uint64_t t_current_span = 0;
thread_local std::uint64_t t_current_request = 0;

}  // namespace

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::NextId() { return next_id_.fetch_add(1); }

Tracer::Buffer& Tracer::ThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size());
    buffers_.back()->spans.reserve(1 << 14);
    buffer = buffers_.back().get();
  }
  return *buffer;
}

void Tracer::Record(const SpanRecord& span) {
  Buffer& buffer = ThreadBuffer();
  SpanRecord copy = span;
  copy.thread = buffer.thread;
  buffer.spans.push_back(copy);
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  const std::vector<SpanRecord> spans = Collect();
  // Children of one parent run on the parent's thread and never
  // overlap each other, so their summed durations are the covered part.
  std::unordered_map<std::uint64_t, double> child_time;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) child_time[span.parent] += span.end_s - span.start_s;
  }
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecord& span : spans) {
    SpanTotals& entry = totals[span.name];
    const double duration = span.end_s - span.start_s;
    ++entry.count;
    entry.total_s += duration;
    const auto it = child_time.find(span.id);
    entry.self_s +=
        std::max(0.0, duration - (it == child_time.end() ? 0.0 : it->second));
  }
  return totals;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const SpanRecord& span : Collect()) {
    std::fprintf(file,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,\"name\":%s,"
                 "\"start_s\":%.9f,\"end_s\":%.9f,\"thread\":%u}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 JsonQuote(span.name).c_str(), span.start_s, span.end_s,
                 span.thread);
  }
  return std::fclose(file) == 0;
}

Span::Span(const char* name, std::uint64_t request) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;
  active_ = true;
  record_.id = tracer.NextId();
  record_.parent = t_current_span;
  record_.request = request != 0 ? request : t_current_request;
  record_.name = name;
  saved_parent_ = t_current_span;
  saved_request_ = t_current_request;
  t_current_span = record_.id;
  t_current_request = record_.request;
  record_.start_s = WallSeconds();
}

Span::~Span() {
  if (!active_) return;
  record_.end_s = WallSeconds();
  t_current_span = saved_parent_;
  t_current_request = saved_request_;
  Tracer::Global().Record(record_);
}

}  // namespace e2ebench
