// In-memory spans recorded by the benchmark around its own calls into the
// program, written out once at the end as Chrome-trace JSON (chrome://tracing,
// ui.perfetto.dev open it), plus the self-time table of the traced run.
//
// A SpanLog belongs to one thread. Spans nest: a span opened while another
// is open on the same log becomes its child, and a span's self time is its
// duration minus the durations of its children.

#ifndef DSGM_PERFBENCH_SPANS_H_
#define DSGM_PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

int64_t MonoNanos();

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;     // index into the same log, -1 for a root
  int64_t count = 1;   // operations the span covers (a block of pushes)
};

class SpanLog {
 public:
  explicit SpanLog(int tid) : tid_(tid) {}

  int Open(const char* name);
  void Close(int index, int64_t count = 1);

  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int tid_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span on `log` for its lifetime; does nothing when `log` is null,
/// which is how the untraced runs pay for no tracing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t count = 1)
      : log_(log), count_(count), index_(log ? log->Open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_, count_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int64_t count_;
  int index_;
};

/// Totals of one span name over a set of logs.
struct SpanTotals {
  int64_t spans = 0;
  int64_t ops = 0;        // sum of Span::count
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::vector<double> durations_ns;
};

/// Per-name totals; self time subtracts each span's children.
std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<const SpanLog*>& logs);

/// Writes every span of `logs` as Chrome-trace "X" events. Returns false if
/// the file could not be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs);

}  // namespace perfbench

#endif  // DSGM_PERFBENCH_SPANS_H_
