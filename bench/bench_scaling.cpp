// Cluster-scale control-plane harness.
//
// The paper's §8 names "decentralized control architecture to handle
// large-scale systems" as future work; this bench drives the sharded
// hierarchical controller (control/hierarchical.h) over sparse chain
// workloads (workloads::chain_cluster) from 16 to 10k processors and
// reports the closed-loop period cost against n — controller update plus
// idealized plant step (control/sparse_model.h's SparseLinearPlant; the
// discrete-event simulator and the dense F both stop being viable orders
// of magnitude below 10k). Emits machine-readable BENCH_SCALING.json
// (schema in docs/performance.md), re-read and validated through
// bench::JsonReader before exiting, so the ctest smoke run is a real gate
// on the file format.
//
// The parity section closes the loop with both the sharded controller and
// the central MPC on square-F scenarios (tasks_per_processor = 1, so the
// steady-state rates at u = B are unique) at every n <= 128, and checks
// the shard-boundary reconciliation converges to the central fixpoint.
//
// The thread axis times the same closed loop at every n >= 1k once per
// sweep worker count (HierarchicalParams::workers): one controller per
// count, settled, then kTrials interleaved trials (the counts take turns,
// alternating direction) of `timed` periods each. Each count's period p50
// is reported as the median of its per-trial p50s with their min/max; a
// speedup over one worker is written only when the two min/max intervals
// do not overlap, and is null with the reason otherwise (the honesty rule
// of BENCH_PERF.json's speedup).
//
// Usage: bench_scaling [--smoke] [--json PATH] [--threads LIST]
//   --smoke         short settle/timing loops (the ctest gate)
//   --json PATH     where to write the JSON report (default BENCH_SCALING.json)
//   --threads LIST  sweep worker counts for the thread axis, comma-separated,
//                   must include 1 (default 1,2,4)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/fork_join.h"
#include "common/thread_pool.h"
#include "eucon/eucon.h"

using namespace eucon;

namespace {

using SteadyClock = std::chrono::steady_clock;
using linalg::Vector;

constexpr int kProcessorCounts[] = {16, 128, 1000, 4000, 10000};
constexpr std::size_t kShardSize = 32;
// The thread axis covers every n at or above this size.
constexpr int kThreadAxisMinProcessors = 1000;
constexpr std::size_t kTrials = 3;

control::MpcParams scale_params() {
  control::MpcParams p;  // the SIMPLE row: the smallest honest horizon
  p.prediction_horizon = 2;
  p.control_horizon = 1;
  p.tref_over_ts = 4.0;
  // The scaling scenarios pin b to an *interior* target b = F r* (see
  // pin_reachable_set_points), not the RMS schedulability bound, so the
  // hard u <= b rows model nothing here — and they can wedge the sharded
  // controller: a boundary row sitting exactly at b hard-blocks a
  // neighbor shard's only path to its own off-target row, an equilibrium
  // only a global trade-off (or soft tracking) escapes. Both controllers
  // run soft, so the parity comparison stays like-for-like.
  p.constraint_mode = control::ConstraintMode::kSoftOnly;
  return p;
}

workloads::ChainClusterParams cluster(int n, int tasks_per_processor) {
  workloads::ChainClusterParams params;
  params.num_processors = n;
  params.tasks_per_processor = tasks_per_processor;
  params.chain_length = 3;
  // A dominant home-processor subtask keeps F column-diagonally dominant:
  // well-conditioned (so u = b identifies the steady-state rates the parity
  // section compares) and weakly coupled across shards (so the staggered
  // Gauss–Seidel sweeps contract at a rate independent of the shard count).
  params.subtask_decay = 0.15;
  return params;
}

// One sweep worker count's period p50 over the interleaved trials.
struct ThreadTiming {
  std::size_t workers = 0;
  std::vector<double> trial_p50_us;

  double min_us() const {
    return *std::min_element(trial_p50_us.begin(), trial_p50_us.end());
  }
  double max_us() const {
    return *std::max_element(trial_p50_us.begin(), trial_p50_us.end());
  }
  double median_us() const;
};

// Speedup of `workers` over one worker: median ratio plus the interval
// [min_1 / max_W, max_1 / min_W], written only when the p50 intervals
// separate (`reason` says why not otherwise).
struct Speedup {
  std::size_t workers = 0;
  bool separated = false;
  double value = 0.0, lo = 0.0, hi = 0.0;
  std::string reason;
};

struct ScalePoint {
  int processors = 0;
  std::size_t tasks = 0;
  std::size_t nnz = 0;
  std::size_t shards = 0;
  std::size_t max_shard_vars = 0;
  std::size_t workspace_vars = 0;
  std::size_t workspace_cons = 0;
  double construct_ms = 0.0;
  std::size_t periods_timed = 0;
  double period_p50_us = 0.0;
  double period_mean_us = 0.0;
  double steady_err_max = 0.0;
  std::size_t workers = 0;  // auto-resolved sweep participants
  std::vector<ThreadTiming> threads;  // n >= kThreadAxisMinProcessors only
  std::vector<Speedup> speedups;
};

struct ParityPoint {
  int processors = 0;
  double max_rate_gap_rel = 0.0;
  double util_err_hier = 0.0;
  double util_err_central = 0.0;
};

// The generated Liu–Layland set points are reachable per row but need not
// be *jointly* reachable: at cluster scale one rate vector must satisfy
// every coupled row at once, and some generated scenario always has a
// processor whose neighbors' demands pin its tasks away from its own b —
// every controller (the central MPC included) then parks at a weighted
// compromise. The scaling scenarios pin the set points to a known-interior
// target b := F r* instead (r* at fraction `t` of each rate range, scaled
// down if any row would exceed 0.9), so u = b is a true fixpoint and
// steady_err_max measures controller convergence, not workload
// feasibility.
control::SparsePlantModel pin_reachable_set_points(
    control::SparsePlantModel model) {
  const std::size_t n = model.num_processors();
  Vector u_lo(n, 0.0), u_hi(n, 0.0);
  for (std::size_t q = 0; q < n; ++q)
    for (std::size_t k = model.f.row_begin(q); k < model.f.row_end(q); ++k) {
      u_lo[q] += model.f.value(k) * model.rate_min[model.f.col_index(k)];
      u_hi[q] += model.f.value(k) * model.rate_max[model.f.col_index(k)];
    }
  double t = 0.6;
  for (std::size_t q = 0; q < n; ++q)
    if (u_hi[q] > 0.9 && u_hi[q] > u_lo[q])
      t = std::min(t, (0.9 - u_lo[q]) / (u_hi[q] - u_lo[q]));
  t = std::max(t, 0.05);
  for (std::size_t q = 0; q < n; ++q)
    model.b[q] = u_lo[q] + t * (u_hi[q] - u_lo[q]);
  return model;
}

double percentile(std::vector<double> samples, double q) {
  EUCON_REQUIRE(!samples.empty(), "percentile of an empty sample set");
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double ThreadTiming::median_us() const {
  return percentile(trial_p50_us, 0.5);
}

// One timed sampling period k after settling: disturb one processor off
// its set point (outside the timed region) so the period's QPs see a
// moving target, as a live cluster would, then time controller update
// plus plant step. Returns microseconds.
double timed_period(control::HierarchicalMpcController& ctrl,
                    control::SparseLinearPlant& plant,
                    const control::SparsePlantModel& model, std::size_t k) {
  Vector u = plant.utilization();
  const std::size_t hot = k % u.size();
  // Steps of -0.03, 0 and +0.03 (k is unsigned: subtract after the cast).
  u[hot] = std::clamp(
      model.b[hot] + 0.03 * (static_cast<double>(k % 3) - 1.0), 0.0, 1.0);
  const auto t0 = SteadyClock::now();
  const Vector& rates = ctrl.update(u);
  plant.step(rates);
  const auto t1 = SteadyClock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

rts::SystemSpec scale_spec(int n) {
  return workloads::chain_cluster(cluster(n, 2),
                                  40 + static_cast<std::uint64_t>(n));
}

// Closed loop at one size: settle to steady state, then time `timed`
// sampling periods (controller update + plant step) with one measurement
// jiggled per period so every shard keeps doing real control work.
ScalePoint run_point(int n, std::size_t settle, std::size_t timed) {
  const rts::SystemSpec spec = scale_spec(n);
  const Vector r0 = spec.initial_rate_vector();

  const auto c0 = SteadyClock::now();
  const control::SparsePlantModel model =
      pin_reachable_set_points(control::make_sparse_plant_model(spec));
  control::HierarchicalParams hier;
  hier.shard_size = kShardSize;
  control::HierarchicalMpcController ctrl(model, scale_params(), hier, r0);
  const auto c1 = SteadyClock::now();

  ScalePoint pt;
  pt.processors = n;
  pt.tasks = model.num_tasks();
  pt.nnz = model.f.nnz();
  pt.shards = ctrl.num_shards();
  pt.max_shard_vars = ctrl.max_shard_problem_size();
  const auto [ws_vars, ws_cons] = ctrl.workspace_capacity();
  pt.workspace_vars = ws_vars;
  pt.workspace_cons = ws_cons;
  pt.construct_ms =
      std::chrono::duration<double, std::milli>(c1 - c0).count();
  pt.workers = ctrl.workers();

  control::SparseLinearPlant plant(
      model, Vector(model.num_processors(), 1.0), r0);
  Vector u = plant.utilization();
  for (std::size_t k = 0; k < settle; ++k) u = plant.step(ctrl.update(u));
  for (std::size_t p = 0; p < u.size(); ++p)
    pt.steady_err_max = std::max(pt.steady_err_max, std::abs(u[p] - model.b[p]));

  std::vector<double> us;
  us.reserve(timed);
  for (std::size_t k = 0; k < timed; ++k)
    us.push_back(timed_period(ctrl, plant, model, k));
  pt.periods_timed = timed;
  pt.period_p50_us = percentile(us, 0.50);
  double sum = 0.0;
  for (double v : us) sum += v;
  pt.period_mean_us = sum / static_cast<double>(us.size());

  std::printf("%6d,%7zu,%8zu,%6zu,%8zu,%12.2f,%14.2f,%14.2f,%12.4f,%7zu\n", n,
              pt.tasks, pt.nnz, pt.shards, pt.max_shard_vars, pt.construct_ms,
              pt.period_p50_us, pt.period_mean_us, pt.steady_err_max,
              pt.workers);
  return pt;
}

// The thread axis at one size: one settled closed loop per worker count
// (the rates, and so the trajectories, are byte-identical across counts),
// timed in kTrials interleaved trials of `timed` periods.
void run_threads(ScalePoint& pt, const std::vector<std::size_t>& counts,
                 std::size_t settle, std::size_t timed) {
  const rts::SystemSpec spec = scale_spec(pt.processors);
  const Vector r0 = spec.initial_rate_vector();
  const control::SparsePlantModel model =
      pin_reachable_set_points(control::make_sparse_plant_model(spec));
  struct Loop {
    std::unique_ptr<control::HierarchicalMpcController> ctrl;
    std::unique_ptr<control::SparseLinearPlant> plant;
    std::size_t k = 0;
  };
  std::vector<Loop> loops;
  for (const std::size_t w : counts) {
    control::HierarchicalParams hier;
    hier.shard_size = kShardSize;
    hier.workers = w;
    Loop loop;
    loop.ctrl = std::make_unique<control::HierarchicalMpcController>(
        model, scale_params(), hier, r0);
    loop.plant = std::make_unique<control::SparseLinearPlant>(
        model, Vector(model.num_processors(), 1.0), r0);
    Vector u = loop.plant->utilization();
    for (std::size_t k = 0; k < settle; ++k)
      u = loop.plant->step(loop.ctrl->update(u));
    loops.push_back(std::move(loop));
    pt.threads.push_back({w, {}});
  }
  std::vector<double> us(timed);
  for (std::size_t t = 0; t < kTrials; ++t)
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const std::size_t c = t % 2 == 0 ? i : counts.size() - 1 - i;
      Loop& loop = loops[c];
      for (double& sample : us)
        sample = timed_period(*loop.ctrl, *loop.plant, model, loop.k++);
      pt.threads[c].trial_p50_us.push_back(percentile(us, 0.5));
    }

  const ThreadTiming& one = *std::find_if(
      pt.threads.begin(), pt.threads.end(),
      [](const ThreadTiming& tt) { return tt.workers == 1; });
  for (const ThreadTiming& tt : pt.threads) {
    std::printf("threads n=%-5d workers=%-2zu p50_us=%.1f [%.1f, %.1f]\n",
                pt.processors, tt.workers, tt.median_us(), tt.min_us(),
                tt.max_us());
    if (tt.workers == 1) continue;
    Speedup sp;
    sp.workers = tt.workers;
    sp.separated = tt.max_us() < one.min_us() || tt.min_us() > one.max_us();
    if (sp.separated) {
      sp.value = one.median_us() / tt.median_us();
      sp.lo = one.min_us() / tt.max_us();
      sp.hi = one.max_us() / tt.min_us();
    } else {
      char why[160];
      std::snprintf(why, sizeof why,
                    "p50 intervals overlap: 1 worker [%.1f, %.1f] us vs %zu "
                    "workers [%.1f, %.1f] us",
                    one.min_us(), one.max_us(), tt.workers, tt.min_us(),
                    tt.max_us());
      sp.reason = why;
    }
    pt.speedups.push_back(sp);
  }
}

// Sharded vs central MPC on a square-F scenario (unique steady-state
// rates): both run the same closed loop; the sharded controller must land
// on the central fixpoint despite every local MPC seeing only its slice
// of the plant through the staggered Gauss–Seidel sweeps.
ParityPoint run_parity(int n, std::size_t periods) {
  const rts::SystemSpec spec =
      workloads::chain_cluster(cluster(n, 1), 90 + static_cast<std::uint64_t>(n));
  const Vector r0 = spec.initial_rate_vector();
  const control::SparsePlantModel model =
      pin_reachable_set_points(control::make_sparse_plant_model(spec));
  const Vector gains(model.num_processors(), 1.0);

  control::HierarchicalParams hier;
  hier.shard_size = 8;  // forces several shards and real boundary rows
  control::HierarchicalMpcController sharded(model, scale_params(), hier, r0);
  control::SparseLinearPlant plant_s(model, gains, r0);
  Vector u_s = plant_s.utilization();
  for (std::size_t k = 0; k < periods; ++k)
    u_s = plant_s.step(sharded.update(u_s));
  const Vector r_s = sharded.update(u_s);

  control::MpcController central(model.to_dense(), scale_params(), r0);
  control::SparseLinearPlant plant_c(model, gains, r0);
  Vector u_c = plant_c.utilization();
  for (std::size_t k = 0; k < periods; ++k)
    u_c = plant_c.step(central.update(u_c));
  const Vector r_c = central.update(u_c);

  ParityPoint pt;
  pt.processors = n;
  for (std::size_t j = 0; j < r_s.size(); ++j)
    pt.max_rate_gap_rel = std::max(
        pt.max_rate_gap_rel, std::abs(r_s[j] - r_c[j]) / std::abs(r_c[j]));
  for (std::size_t p = 0; p < u_s.size(); ++p) {
    pt.util_err_hier =
        std::max(pt.util_err_hier, std::abs(u_s[p] - model.b[p]));
    pt.util_err_central =
        std::max(pt.util_err_central, std::abs(u_c[p] - model.b[p]));
  }
  std::printf("parity n=%-4d max_rate_gap_rel=%.5f util_err_hier=%.5f "
              "util_err_central=%.5f\n",
              n, pt.max_rate_gap_rel, pt.util_err_hier, pt.util_err_central);
  return pt;
}

// ---------------------------------------------------------------------------
// JSON emission + schema validation
// ---------------------------------------------------------------------------

std::string json_number(double v) {
  EUCON_REQUIRE(std::isfinite(v), "JSON report requires finite numbers");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void write_threads(std::ofstream& out, const ScalePoint& p) {
  out << "      \"threads\": [\n";
  for (std::size_t i = 0; i < p.threads.size(); ++i) {
    const ThreadTiming& t = p.threads[i];
    out << "        {\"workers\": " << t.workers
        << ", \"trials\": " << t.trial_p50_us.size()
        << ", \"period_p50_us\": " << json_number(t.median_us())
        << ", \"p50_min_us\": " << json_number(t.min_us())
        << ", \"p50_max_us\": " << json_number(t.max_us()) << "}"
        << (i + 1 < p.threads.size() ? "," : "") << "\n";
  }
  out << "      ],\n";
  out << "      \"speedup\": [\n";
  for (std::size_t i = 0; i < p.speedups.size(); ++i) {
    const Speedup& s = p.speedups[i];
    out << "        {\"workers\": " << s.workers << ", \"speedup\": ";
    if (s.separated)
      out << json_number(s.value) << ", \"lo\": " << json_number(s.lo)
          << ", \"hi\": " << json_number(s.hi);
    else
      out << "null, \"reason\": \"" << s.reason << "\"";
    out << "}" << (i + 1 < p.speedups.size() ? "," : "") << "\n";
  }
  out << "      ],\n";
}

void write_report(const std::string& path,
                  const std::vector<ScalePoint>& points,
                  const std::vector<ParityPoint>& parity, double blowup,
                  bool smoke) {
  std::ofstream out(path);
  EUCON_REQUIRE(out.good(), "cannot open JSON report path: " + path);
  out << "{\n";
  out << "  \"schema_version\": 2,\n";
  out << "  \"generated_by\": \"bench_scaling\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"hardware_concurrency\": " << ThreadPool::default_workers()
      << ",\n";
  out << "  \"shard_size\": " << kShardSize << ",\n";
  out << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    out << "    {\n";
    out << "      \"processors\": " << p.processors << ",\n";
    out << "      \"tasks\": " << p.tasks << ",\n";
    out << "      \"nnz\": " << p.nnz << ",\n";
    out << "      \"shards\": " << p.shards << ",\n";
    out << "      \"max_shard_vars\": " << p.max_shard_vars << ",\n";
    out << "      \"workspace_vars\": " << p.workspace_vars << ",\n";
    out << "      \"workspace_cons\": " << p.workspace_cons << ",\n";
    out << "      \"construct_ms\": " << json_number(p.construct_ms) << ",\n";
    out << "      \"periods_timed\": " << p.periods_timed << ",\n";
    out << "      \"period_p50_us\": " << json_number(p.period_p50_us) << ",\n";
    out << "      \"period_mean_us\": " << json_number(p.period_mean_us)
        << ",\n";
    out << "      \"workers\": " << p.workers << ",\n";
    if (!p.threads.empty()) write_threads(out, p);
    out << "      \"steady_err_max\": " << json_number(p.steady_err_max)
        << "\n";
    out << "    }" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"parity\": [\n";
  for (std::size_t i = 0; i < parity.size(); ++i) {
    const ParityPoint& p = parity[i];
    out << "    {\"processors\": " << p.processors
        << ", \"max_rate_gap_rel\": " << json_number(p.max_rate_gap_rel)
        << ", \"util_err_hier\": " << json_number(p.util_err_hier)
        << ", \"util_err_central\": " << json_number(p.util_err_central)
        << "}" << (i + 1 < parity.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"blowup_10k_vs_1k\": " << json_number(blowup) << "\n";
  out << "}\n";
  EUCON_REQUIRE(out.good(), "failed writing JSON report: " + path);
}

// Checks one point's thread axis: every worker count (1 among them) with
// at least kTrials trials and min <= p50 <= max, and one speedup entry per
// count above 1 that is a number exactly when the count's p50 interval
// separates from one worker's (the median ratio, inside [lo, hi]) and
// null with a reason otherwise. Returns the number of violations.
int validate_threads(const bench::JsonReader& reader, const std::string& p) {
  int violations = 0;
  const auto need = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "schema: %s\n", what.c_str());
      ++violations;
    }
  };
  const auto num = [&](const std::string& key) {
    return reader.has_number(key) ? reader.number(key) : std::nan("");
  };
  std::size_t counts = 0, speedups = 0;
  try {
    counts = reader.array_size(p + ".threads");
    speedups = reader.array_size(p + ".speedup");
  } catch (const std::exception&) {
    // handled by the need() below
  }
  need(counts >= 2 && speedups + 1 == counts,
       p + " needs a threads array (>= 2 worker counts) and one speedup "
           "entry per count above 1");
  double one_lo = std::nan(""), one_hi = std::nan(""), one_med = std::nan("");
  for (std::size_t i = 0; i < counts; ++i) {
    const std::string t = p + ".threads[" + std::to_string(i) + "]";
    const double lo = num(t + ".p50_min_us"), med = num(t + ".period_p50_us"),
                 hi = num(t + ".p50_max_us");
    need(num(t + ".trials") >= static_cast<double>(kTrials),
         t + ".trials missing or < " + std::to_string(kTrials));
    need(lo > 0.0 && lo <= med && med <= hi, t + " needs 0 < min <= p50 <= max");
    if (num(t + ".workers") == 1.0) {  // eucon-lint: allow(float-equality)
      one_lo = lo;
      one_med = med;
      one_hi = hi;
    }
  }
  need(std::isfinite(one_med), p + ".threads lacks the 1-worker baseline");
  for (std::size_t i = 0; i < speedups && std::isfinite(one_med); ++i) {
    const std::string e = p + ".speedup[" + std::to_string(i) + "]";
    const double w = num(e + ".workers");
    double lo = std::nan(""), med = std::nan(""), hi = std::nan("");
    for (std::size_t k = 0; k < counts; ++k) {
      const std::string t = p + ".threads[" + std::to_string(k) + "]";
      if (num(t + ".workers") == w) {  // eucon-lint: allow(float-equality)
        lo = num(t + ".p50_min_us");
        med = num(t + ".period_p50_us");
        hi = num(t + ".p50_max_us");
      }
    }
    need(w > 1.0 && std::isfinite(med), e + ".workers names no timed count");
    const bool separated = hi < one_lo || lo > one_hi;
    if (reader.has_null(e + ".speedup")) {
      need(!separated, e + ": intervals separate, so the speedup is known");
      need(reader.has_string(e + ".reason") &&
               !reader.string_at(e + ".reason").empty(),
           e + ": a null speedup needs a reason");
    } else {
      const double v = num(e + ".speedup");
      need(separated, e + ": speedup written although the intervals overlap");
      need(std::abs(v - one_med / med) <= 1e-6 * v &&
               num(e + ".lo") <= v && v <= num(e + ".hi"),
           e + ": speedup must be the median ratio, inside [lo, hi]");
    }
  }
  return violations;
}

// Re-reads the emitted report and checks the schema; returns the number of
// violations (0 = valid). check.sh --scale runs the same checks against
// the checked-in BENCH_SCALING.json.
int validate_report(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "schema: cannot reopen %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  bench::JsonReader reader(buf.str());
  try {
    reader.parse();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "schema: %s does not parse: %s\n", path.c_str(),
                 e.what());
    return 1;
  }

  int violations = 0;
  const auto need = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "schema: %s\n", what.c_str());
      ++violations;
    }
  };
  need(reader.has_number("schema_version") &&
           reader.number("schema_version") > 0.5,
       "schema_version missing or < 1");
  need(reader.has_string("generated_by"), "generated_by missing");
  need(reader.has_bool("smoke"), "smoke flag missing");
  need(reader.has_number("shard_size") && reader.number("shard_size") >= 1.0,
       "shard_size missing or < 1");
  need(reader.has_number("hardware_concurrency") &&
           reader.number("hardware_concurrency") >= 1.0,
       "hardware_concurrency missing or < 1");

  std::size_t num_points = 0;
  try {
    num_points = reader.array_size("points");
  } catch (const std::exception&) {
    // handled by the need() below
  }
  const std::size_t expected =
      sizeof(kProcessorCounts) / sizeof(kProcessorCounts[0]);
  need(num_points == expected,
       "points must hold every processor count (16..10k)");
  for (std::size_t i = 0; i < num_points; ++i) {
    const std::string p = "points[" + std::to_string(i) + "]";
    if (i < expected)
      need(reader.has_number(p + ".processors") &&
               reader.number(p + ".processors") ==
                   static_cast<double>(kProcessorCounts[i]),
           p + ".processors must be " + std::to_string(kProcessorCounts[i]));
    for (const char* key :
         {".tasks", ".nnz", ".shards", ".max_shard_vars", ".workspace_vars",
          ".workspace_cons", ".construct_ms", ".periods_timed",
          ".period_p50_us", ".period_mean_us", ".steady_err_max"}) {
      const std::string full = p + key;
      need(reader.has_number(full) && std::isfinite(reader.number(full)),
           full + " missing or non-finite");
    }
    need(reader.has_number(p + ".period_p50_us") &&
             reader.number(p + ".period_p50_us") > 0.0,
         p + ".period_p50_us must be positive");
    need(reader.has_number(p + ".steady_err_max") &&
             reader.number(p + ".steady_err_max") < 0.02,
         p + ".steady_err_max must show a settled loop (< 0.02)");
    need(reader.has_number(p + ".workers") && reader.number(p + ".workers") >= 1.0,
         p + ".workers missing or < 1");
    if (i < expected && kProcessorCounts[i] >= kThreadAxisMinProcessors)
      violations += validate_threads(reader, p);
  }

  std::size_t parity_points = 0;
  try {
    parity_points = reader.array_size("parity");
  } catch (const std::exception&) {
    // handled by the need() below
  }
  need(parity_points >= 2, "parity must cover every n <= 128 scenario");
  for (std::size_t i = 0; i < parity_points; ++i) {
    const std::string p = "parity[" + std::to_string(i) + "]";
    need(reader.has_number(p + ".processors") &&
             reader.number(p + ".processors") <= 128.0,
         p + " must be an n <= 128 scenario");
    need(reader.has_number(p + ".max_rate_gap_rel") &&
             reader.number(p + ".max_rate_gap_rel") < 0.02,
         p + ".max_rate_gap_rel must be within tolerance (< 0.02)");
    need(reader.has_number(p + ".util_err_hier") &&
             reader.number(p + ".util_err_hier") < 0.01,
         p + ".util_err_hier must be within tolerance (< 0.01)");
  }

  // The superlinear-blowup guard: shards are constant-size, so the period
  // cost must scale roughly with the shard count — 10x processors may not
  // buy 100x period cost.
  need(reader.has_number("blowup_10k_vs_1k") &&
           std::isfinite(reader.number("blowup_10k_vs_1k")) &&
           reader.number("blowup_10k_vs_1k") > 0.0 &&
           reader.number("blowup_10k_vs_1k") < 100.0,
       "blowup_10k_vs_1k missing or >= 100 (superlinear blowup)");
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_SCALING.json";
  std::vector<std::size_t> thread_counts = {1, 2, 4};
  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: bench_scaling [--smoke] [--json PATH] "
                 "[--threads N,N,...]  (worker counts in 1..%zu, one of "
                 "them 1)\n",
                 ForkJoinTeam::kMaxSize);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      thread_counts.clear();
      std::istringstream list(argv[++i]);
      std::string item;
      while (std::getline(list, item, ',')) {
        char* end = nullptr;
        const unsigned long w = std::strtoul(item.c_str(), &end, 10);
        if (item.empty() || *end != '\0' || w < 1 ||
            w > ForkJoinTeam::kMaxSize ||
            std::count(thread_counts.begin(), thread_counts.end(), w) > 0)
          return usage();
        thread_counts.push_back(w);
      }
      if (std::count(thread_counts.begin(), thread_counts.end(), 1u) == 0)
        return usage();
    } else {
      return usage();
    }
  }

  const std::size_t settle = smoke ? 60 : 150;
  const std::size_t timed = smoke ? 8 : 40;
  const std::size_t parity_periods = smoke ? 250 : 400;

  bench::ShapeChecks checks;
  std::printf("# Hierarchical control plane: closed-loop period cost vs n "
              "(shard_size=%zu)\n",
              kShardSize);
  bench::print_header({"procs", "tasks", "nnz", "shards", "max_shard_vars",
                       "construct_ms", "period_p50_us", "period_mean_us",
                       "steady_err_max", "workers"});
  std::vector<ScalePoint> points;
  for (const int n : kProcessorCounts)
    points.push_back(run_point(n, settle, timed));
  std::printf("# Thread axis: period p50 per sweep worker count, %zu "
              "interleaved trials of %zu periods\n",
              kTrials, timed);
  for (ScalePoint& p : points)
    if (p.processors >= kThreadAxisMinProcessors)
      run_threads(p, thread_counts, settle, timed);

  for (const ScalePoint& p : points) {
    checks.expect(p.steady_err_max < 0.02,
                  "loop settles to the set points at n = " +
                      std::to_string(p.processors));
    checks.expect(p.workspace_vars == p.max_shard_vars,
                  "QP workspace sized to the largest shard at n = " +
                      std::to_string(p.processors));
  }
  checks.expect(points.back().shards ==
                    (10000 + kShardSize - 1) / kShardSize,
                "10k processors shard into ceil(n / shard_size) local MPCs");

  const double blowup =
      points[4].period_p50_us / std::max(points[2].period_p50_us, 1e-9);
  std::printf("period cost blowup 10k vs 1k: %.2fx\n", blowup);
  checks.expect(blowup < 100.0,
                "period cost grows sub-quadratically: 10x processors stays "
                "under 100x period cost");

  std::printf("# Sharded vs central MPC parity (square F, unique "
              "steady-state rates)\n");
  std::vector<ParityPoint> parity;
  for (const int n : {16, 32, 128})
    parity.push_back(run_parity(n, parity_periods));
  for (const ParityPoint& p : parity) {
    checks.expect(p.util_err_central < 0.01,
                  "central MPC settles at n = " + std::to_string(p.processors));
    checks.expect(p.util_err_hier < 0.01,
                  "sharded controller settles at n = " +
                      std::to_string(p.processors));
    checks.expect(p.max_rate_gap_rel < 0.02,
                  "sharded steady-state rates match the central MPC at n = " +
                      std::to_string(p.processors));
  }

  write_report(json_path, points, parity, blowup, smoke);
  const int violations = validate_report(json_path);
  if (violations != 0) {
    std::fprintf(stderr, "bench_scaling: %s failed schema validation\n",
                 json_path.c_str());
    return checks.finish("bench_scaling") + violations;
  }
  std::printf("bench_scaling: wrote %s (schema valid)\n", json_path.c_str());
  return checks.finish("bench_scaling");
}
