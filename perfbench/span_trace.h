// Span recorder for the traced benchmark binary. The link-time wrappers in
// wraps.cc open one ScopedSpan around every interposed call; each thread
// keeps its own frame stack, per-name totals and span records, so recording
// takes no lock. Self time is a span's duration minus the time its child
// spans on the same thread cover.
#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <cstdint>

namespace perfbench {

/// Returns the id of span name `name`, registering it on first use.
/// `keep_all` spans are recorded individually without a cap (the window
/// analysis needs every one); other names keep the first kRecordCap records
/// per thread and are otherwise only aggregated.
int SpanIdFor(const char* name, bool keep_all = false);

/// Adds `n` to the calling thread's event counter for span name `id`, a
/// count of work items the span produced (e.g. plans selected).
void CountEvents(int id, uint64_t n);

class ScopedSpan {
 public:
  explicit ScopedSpan(int id, double arg = 0.0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

/// Drops everything recorded so far. Call only while no span is open on
/// any thread (between benchmark repetitions).
void TraceReset();

/// Writes the per-name totals and the span records as JSON to `path`.
bool TraceDump(const char* path);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
