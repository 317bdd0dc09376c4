#include "trace.h"

#include <cstdio>

#include "common/logging.h"
#include "common/status.h"

namespace amalur {
namespace e2ebench {

size_t Tracer::Begin(std::string name) {
  SpanRecord span;
  span.name = std::move(name);
  span.start_us = origin_.ElapsedSeconds() * 1e6;
  span.end_us = span.start_us;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::End(size_t span) {
  AMALUR_CHECK(!open_.empty() && open_.back() == span)
      << "spans must close innermost first";
  spans_[span].end_us = origin_.ElapsedSeconds() * 1e6;
  open_.pop_back();
}

double Tracer::SelfSeconds(size_t span) const {
  double self = spans_[span].Seconds();
  for (const SpanRecord& child : spans_) {
    if (child.parent == static_cast<int64_t>(span)) self -= child.Seconds();
  }
  return self;
}

bool Tracer::IsBelow(size_t span, size_t root) const {
  for (int64_t at = spans_[span].parent; at >= 0; at = spans_[at].parent) {
    if (static_cast<size_t>(at) == root) return true;
  }
  return false;
}

std::vector<double> Tracer::Durations(const std::string& name,
                                      size_t root) const {
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name && IsBelow(i, root)) {
      out.push_back(spans_[i].Seconds());
    }
  }
  return out;
}

double Tracer::Total(const std::string& name, size_t root) const {
  double total = 0.0;
  for (double seconds : Durations(name, root)) total += seconds;
  return total;
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IOError("cannot write trace '", path, "'");
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    // Complete ("X") events; the parent link and run id ride in args and
    // `id`, since the format itself nests complete events by time only.
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"id\": \"%s\", \"args\": {\"span\": %zu, \"parent\": %lld}}"
                 "%s\n",
                 span.name.c_str(),
                 span.name.substr(0, span.name.find('.')).c_str(),
                 span.start_us, span.end_us - span.start_us,
                 run_id_.c_str(), i, static_cast<long long>(span.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  if (std::fclose(out) != 0) {
    return Status::IOError("cannot finish trace '", path, "'");
  }
  return Status::OK();
}

}  // namespace e2ebench
}  // namespace amalur
