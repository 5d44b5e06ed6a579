// In-memory span recorder for the traced run (README.md, "Traced run").
//
// A span is one call into a layer, timed from the benchmark's own code:
// name, start, end, parent span, and the id of the period (or run) it
// belongs to — spans of one period share that id. Spans are appended to a
// preallocated buffer and written out once, when the run ends, so tracing
// costs two clock reads and one store per call.
//
// A span's self time is its duration minus the part of its interval that
// its child spans cover (the union of the children, so concurrent children
// — batch_sweep's pooled periods — are not double-counted).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit SpanRecorder(std::size_t capacity);

  bool full() const { return spans_.size() >= spans_.capacity(); }
  std::size_t size() const { return spans_.size(); }

  // Opens a span now; returns its id (kNoParent when the buffer is full,
  // in which case end() ignores it). `name` must be a string literal.
  std::uint32_t begin(const char* name, std::uint32_t parent,
                      std::uint64_t period);
  void end(std::uint32_t id);

  // Records a span measured elsewhere (e.g. on a batch worker thread).
  std::uint32_t add(const char* name, std::uint32_t parent,
                    std::uint64_t period, Clock::time_point start,
                    Clock::time_point end);

  struct Totals {
    std::uint64_t count = 0;
    double total_us = 0.0;  // Σ duration
    double self_us = 0.0;   // Σ (duration − covered by children)
  };
  // Per span name.
  std::map<std::string, Totals> totals() const;

  // Writes every span as CSV (name,start_ns,end_ns,parent,period,self_ns;
  // times relative to the recorder's creation). Returns false on I/O error.
  bool write_csv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::uint64_t period;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::int64_t ns_since_origin(Clock::time_point t) const;
  std::vector<std::int64_t> self_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Mean per-period figures of a traced span name: Σ duration / periods, µs.
double per_period_us(const std::map<std::string, SpanRecorder::Totals>& t,
                     const std::string& name, std::uint64_t periods);

// Share of the `root` spans' time that no child span covers.
double unattributed_frac(const std::map<std::string, SpanRecorder::Totals>& t,
                         const std::string& root);

}  // namespace perfbench
