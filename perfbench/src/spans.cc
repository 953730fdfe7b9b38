#include "spans.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t MonoNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::Open(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = MonoNanos();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::Close(int index, int64_t count) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = MonoNanos();
  span.count = count;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> by_name;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      SpanTotals& totals = by_name[spans[i].name];
      ++totals.spans;
      totals.ops += spans[i].count;
      totals.total_ns += dur;
      totals.self_ns += dur - child_ns[i];
      totals.durations_ns.push_back(dur);
    }
  }
  return by_name;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      if (span.start_ns < origin) origin = span.start_ns;
    }
  }
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"ops\":%lld}}",
                   first ? "" : ",\n", span.name,
                   static_cast<double>(span.start_ns - origin) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   log->tid(), static_cast<long long>(span.count));
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
