// Shared plumbing of the repository benchmark (README.md in this
// directory): arguments, the result record every workload fills, timing and
// percentile helpers, the trajectory digest and the output checks.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/vector.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured phase
  bool trace = false;     // false: end-to-end metrics; true: per-layer
  std::string trace_out;  // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one invocation reports. `attempted` counts checked operations
// (periods for the loop workloads, runs for batch_sweep); `failed` those
// whose outputs failed a check. Any failed check also clears `correct`.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records a failed output check (printed to stderr at once).
  void fail(const std::string& what);
};

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample set.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

// Host times of the timed phase, grouped into windows of consecutive
// measurement: about 0.3 s each for cluster_10k, one run for batch_sweep.
//
// Why windows: on the shared hosts this benchmark runs on, host
// interference slows every thread by 1.4-1.8x, in episodes that last
// seconds (measured; thread CPU time shows the same slowdown, so it is not
// steal time). A whole-run median then mostly measures how much of the run
// fell into such episodes. The median period and the throughput are
// therefore taken over the quietest windows: the tenth of each group (at
// least one) with the lowest window median, or, for throughput, the
// highest run rate. Windows of one group do the same work (cluster_10k:
// every window; batch_sweep: the runs of one grid point), so the selection
// filters interference and never shifts the mix of work.
// The p99 is over every period, since a tail is what interference
// produces and what a user sees.
struct Window {
  std::vector<double> us;       // period host times, µs
  double wall_s = 0.0;          // wall time the window took
  double runs = 0.0;            // 300-period runs it completed
  std::size_t group = 0;        // windows of one group do the same work
};

class Timing {
 public:
  static constexpr std::size_t kMinSamples = 1000;  // >= 10 beyond p99
  static constexpr double kQuietShare = 0.1;

  // Opens a window; subsequent add() calls go to it.
  void open_window(std::size_t group = 0) {
    windows_.emplace_back();
    windows_.back().group = group;
  }
  void add(double us) { windows_.back().us.push_back(us); }
  Window& current() { return windows_.back(); }
  std::size_t samples() const;

  // Adds period_p50_us and period_p99_us to `out`, plus runs_per_s from the
  // quiet windows when `throughput` is set; prints the sample counts to
  // stderr.
  void report(const std::string& workload, bool throughput, Outcome& out) const;

 private:
  std::vector<Window> windows_;
};

// FNV-1a over the exact bit patterns of a simulated trajectory: two runs
// with one seed must produce the same digest.
class Digest {
 public:
  void add(double v);
  void add(const std::vector<double>& v) {
    for (double x : v) add(x);
  }
  void add(const eucon::linalg::Vector& v) { add(v.data()); }
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

// Compares two trajectory digests of one seed and prints the digest line.
void check_digests(const std::string& workload, const Digest& a,
                   const Digest& b, Outcome& out);

// True when every rate is finite and inside [lo_j, hi_j].
bool rates_in_box(const std::vector<double>& rates,
                  const eucon::linalg::Vector& lo,
                  const eucon::linalg::Vector& hi);

// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

// The workloads. Each fills `out` with every end-to-end metric (untraced)
// or every per-layer metric (traced) it measures.
void cluster_10k(const Args& args, Outcome& out);
void batch_sweep(const Args& args, Outcome& out);

}  // namespace perfbench
