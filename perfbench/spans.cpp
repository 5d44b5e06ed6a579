#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder(std::size_t capacity) : origin_(Clock::now()) {
  spans_.reserve(capacity);
}

std::int64_t SpanRecorder::ns_since_origin(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

std::uint32_t SpanRecorder::begin(const char* name, std::uint32_t parent,
                                  std::uint64_t period) {
  if (full()) return kNoParent;
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back({name, parent, period, ns_since_origin(Clock::now()), 0});
  return id;
}

void SpanRecorder::end(std::uint32_t id) {
  if (id == kNoParent) return;
  spans_[id].end_ns = ns_since_origin(Clock::now());
}

std::uint32_t SpanRecorder::add(const char* name, std::uint32_t parent,
                                std::uint64_t period, Clock::time_point start,
                                Clock::time_point end) {
  if (full()) return kNoParent;
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(
      {name, parent, period, ns_since_origin(start), ns_since_origin(end)});
  return id;
}

std::vector<std::int64_t> SpanRecorder::self_ns() const {
  // Children of each span, as intervals; a span's self time is its length
  // minus the union of its children's intervals.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_)
    if (s.parent != kNoParent) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (cur_hi < lo) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = std::max<std::int64_t>(
        0, spans_[i].end_ns - spans_[i].start_ns - covered);
  }
  return self;
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    ++t.count;
    t.total_us +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1000.0;
    t.self_us += static_cast<double>(self[i]) / 1000.0;
  }
  return out;
}

bool SpanRecorder::write_csv(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::vector<std::int64_t> self = self_ns();
  f << "name,start_ns,end_ns,parent,period,self_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << s.name << ',' << s.start_ns << ',' << s.end_ns << ',';
    if (s.parent == kNoParent)
      f << -1;
    else
      f << s.parent;
    f << ',' << s.period << ',' << self[i] << '\n';
  }
  return static_cast<bool>(f);
}

double per_period_us(const std::map<std::string, SpanRecorder::Totals>& t,
                     const std::string& name, std::uint64_t periods) {
  const auto it = t.find(name);
  if (it == t.end() || periods == 0) return 0.0;
  return it->second.total_us / static_cast<double>(periods);
}

double unattributed_frac(const std::map<std::string, SpanRecorder::Totals>& t,
                         const std::string& root) {
  const auto it = t.find(root);
  if (it == t.end() || it->second.total_us <= 0.0) return 0.0;
  return it->second.self_us / it->second.total_us;
}

}  // namespace perfbench
