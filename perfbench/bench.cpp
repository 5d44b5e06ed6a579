#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

namespace perfbench {

void Outcome::fail(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

std::size_t Timing::samples() const {
  std::size_t n = 0;
  for (const Window& w : windows_) n += w.us.size();
  return n;
}

void Timing::report(const std::string& workload, bool throughput,
                    Outcome& out) const {
  std::vector<double> all;
  std::map<std::size_t, std::vector<const Window*>> groups;
  for (const Window& w : windows_) {
    all.insert(all.end(), w.us.begin(), w.us.end());
    if (!w.us.empty()) groups[w.group].push_back(&w);
  }
  if (all.size() < kMinSamples) {
    out.fail(workload + ": only " + std::to_string(all.size()) +
             " period samples; p99 needs at least " + std::to_string(kMinSamples));
    return;
  }
  const double p99 = quantile(all, 0.99);
  const auto beyond = static_cast<std::size_t>(
      std::count_if(all.begin(), all.end(), [&](double v) { return v > p99; }));

  // The quietest tenth (at least one) of `ws` by `key`, lowest first.
  const auto quietest = [](std::vector<const Window*> ws, auto key) {
    std::sort(ws.begin(), ws.end(),
              [&](const Window* a, const Window* b) { return key(*a) < key(*b); });
    ws.resize(std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::lround(kQuietShare * static_cast<double>(ws.size())))));
    return ws;
  };
  std::vector<double> quiet;
  double wall = 0.0, runs = 0.0;
  std::size_t windows = 0, kept = 0;
  for (const auto& [group, ws] : groups) {
    const auto by_median =
        quietest(ws, [](const Window& w) { return median(w.us); });
    for (const Window* w : by_median)
      quiet.insert(quiet.end(), w->us.begin(), w->us.end());
    // Throughput is ranked on its own: a window's run rate is the direct
    // measure of how much interference slowed it.
    for (const Window* w :
         quietest(ws, [](const Window& w) { return -w.runs / w.wall_s; })) {
      wall += w->wall_s;
      runs += w->runs;
    }
    windows += ws.size();
    kept += by_median.size();
  }
  std::fprintf(stderr,
               "perfbench: %s: %zu period samples (%zu beyond p99) in %zu "
               "windows; the %zu quietest hold %zu samples\n",
               workload.c_str(), all.size(), beyond, windows, kept, quiet.size());
  out.add("period_p50_us", median(std::move(quiet)), "us");
  out.add("period_p99_us", p99, "us");
  if (throughput) out.add("runs_per_s", runs / wall, "1/s");
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h_ ^= (bits >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void check_digests(const std::string& workload, const Digest& a,
                   const Digest& b, Outcome& out) {
  std::printf("# digest %s %s %s\n", workload.c_str(), a.hex().c_str(),
              a.value() == b.value() ? "repeat-match" : "REPEAT-MISMATCH");
  if (a.value() != b.value())
    out.fail(workload + ": two runs with one seed gave different "
                        "trajectories (digest " +
             a.hex() + " vs " + b.hex() + ")");
}

bool rates_in_box(const std::vector<double>& rates,
                  const eucon::linalg::Vector& lo,
                  const eucon::linalg::Vector& hi) {
  if (rates.size() != lo.size()) return false;
  for (std::size_t j = 0; j < rates.size(); ++j)
    if (!std::isfinite(rates[j]) || rates[j] < lo[j] || rates[j] > hi[j])
      return false;
  return true;
}

double peak_rss_mb() {
  // VmHWM, not getrusage(): ru_maxrss survives execve, so it would report
  // the launching process's peak when that was larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace perfbench
