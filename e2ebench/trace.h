#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"

/// \file trace.h
/// The benchmark's span collector. Spans are opened and closed around the
/// benchmark's own calls into the library's public functions, kept in
/// memory, and written once at the end of a run as Chrome trace-event JSON
/// (chrome://tracing and Perfetto read it). Every span of a run carries the
/// run's id. Spans are recorded from the benchmark's main thread only.

namespace amalur {
namespace e2ebench {

/// One closed span, in microseconds since the tracer was created.
struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  /// Index of the enclosing span in `Tracer::spans()`; -1 for a root.
  int64_t parent = -1;

  double Seconds() const { return (end_us - start_us) * 1e-6; }
};

class Tracer {
 public:
  explicit Tracer(std::string run_id) : run_id_(std::move(run_id)) {}

  /// Opens a span as a child of the innermost open span; returns its index.
  size_t Begin(std::string name);
  /// Closes `span`, which must be the innermost open span.
  void End(size_t span);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Duration minus the time covered by direct children (children never
  /// overlap: they are opened and closed on one thread).
  double SelfSeconds(size_t span) const;
  /// Durations of every span named `name` below the span `root`.
  std::vector<double> Durations(const std::string& name, size_t root) const;
  /// Sum of `Durations`.
  double Total(const std::string& name, size_t root) const;

  Status WriteChromeJson(const std::string& path) const;

 private:
  bool IsBelow(size_t span, size_t root) const;

  std::string run_id_;
  Stopwatch origin_;
  std::vector<SpanRecord> spans_;
  std::vector<size_t> open_;
};

/// RAII span; a null tracer records nothing, so untraced runs pay one
/// branch per call site.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), span_(tracer != nullptr ? tracer->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  size_t index() const { return span_; }

 private:
  Tracer* tracer_;
  size_t span_;
};

}  // namespace e2ebench
}  // namespace amalur
