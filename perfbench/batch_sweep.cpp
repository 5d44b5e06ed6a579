// batch_sweep: one run_batch call per repetition over the grid
// {MEDIUM, LARGE} × {EUCON, DEUCON} × etf {0.5, 1, 2, 4} × report loss
// {0, 0.1} — 32 runs of the paper's 300 periods on 4 pool workers with one
// shared obs::Registry (the eucon_sim --metrics / steering configuration).
// Per-run seeds come from seed_base, which derives from the workload seed
// and the repetition. Every run pays controller construction, overload
// (etf 4) forces infeasible-QP fallbacks, and the pool and the shared
// registry are contended; DEUCON runs load the decentralized controller.
// Batches run back to back (a closed loop: the caller waits for each
// batch).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include "bench.h"
#include "eucon/eucon.h"
#include "spans.h"

namespace perfbench {
namespace {

using eucon::linalg::Vector;
using Rec = SpanRecorder;

constexpr int kRunPeriods = 300;  // the paper's run length
constexpr int kSetupRepsPerBatch = 11;  // grid builds timed per batch
// Timed batches per run at least: the quietest batches and each grid point's
// quietest run need a few to choose from.
constexpr std::size_t kMinBatches = 5;

// Per-run period clock, fed by the run's on_period hook on whichever
// worker executes the run (one run, one worker: no sharing). The interval
// between consecutive hook calls is one full period of the experiment loop.
struct RunClock {
  std::vector<Clock::time_point> ticks;
};

struct Grid {
  std::vector<eucon::ExperimentSpec> specs;
  std::vector<Vector> rate_min, rate_max;  // per spec
  std::vector<std::unique_ptr<RunClock>> clocks;
  std::size_t eucon_runs = 0;
};

Grid build_grid() {
  Grid g;
  const eucon::rts::SystemSpec workloads[] = {eucon::workloads::medium(),
                                              eucon::workloads::large()};
  const char* names[] = {"medium", "large"};
  for (std::size_t w = 0; w < 2; ++w)
    for (const auto kind : {eucon::ControllerKind::kEucon,
                            eucon::ControllerKind::kDecentralized})
      for (const double etf : {0.5, 1.0, 2.0, 4.0})
        for (const double loss : {0.0, 0.1}) {
          eucon::ExperimentSpec s;
          s.name = std::string(names[w]) + "-" +
                   eucon::controller_kind_name(kind) + "-etf" +
                   std::to_string(etf) + "-loss" + std::to_string(loss);
          s.config.spec = workloads[w];
          s.config.controller = kind;
          s.config.mpc = eucon::workloads::medium_controller_params();
          s.config.num_periods = kRunPeriods;
          s.config.sim.jitter = 0.2;
          s.config.sim.etf = eucon::rts::EtfProfile::constant(etf);
          s.config.report_loss_probability = loss;
          g.specs.push_back(std::move(s));
          if (kind == eucon::ControllerKind::kEucon) ++g.eucon_runs;
        }
  for (eucon::ExperimentSpec& s : g.specs) {
    Vector lo(s.config.spec.num_tasks()), hi(s.config.spec.num_tasks());
    for (std::size_t j = 0; j < lo.size(); ++j) {
      lo[j] = s.config.spec.tasks[j].rate_min;
      hi[j] = s.config.spec.tasks[j].rate_max;
    }
    g.rate_min.push_back(std::move(lo));
    g.rate_max.push_back(std::move(hi));
    g.clocks.push_back(std::make_unique<RunClock>());
    RunClock* clock = g.clocks.back().get();
    clock->ticks.reserve(kRunPeriods);
    s.config.on_period = [clock](int, eucon::control::Controller&) {
      clock->ticks.push_back(Clock::now());
    };
  }
  return g;
}

std::size_t workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(4, hw == 0 ? 1 : hw);
}

struct Tally {
  std::uint64_t acceptable = 0, pairs = 0;  // (processor, run) pairs
  std::uint64_t e2e_misses = 0, completed = 0;
  std::uint64_t runs = 0;
  double batch_s = 0.0;  // wall time inside run_batch
};

// Runs the grid once with seed_base derived from (seed, rep), checks every
// run's rates, and folds the results into `tally`. Period host times go to
// `timing` (one window per run, grouped by grid point) and to `times`;
// with `rec` set, the batch and every period become spans.
std::vector<eucon::ExperimentResult> run_grid(
    Grid& g, std::uint64_t seed, std::uint64_t rep, bool serial,
    eucon::obs::Registry& registry, Timing* timing, std::vector<double>* times,
    Rec* rec, Tally& tally, Outcome& out) {
  for (auto& c : g.clocks) c->ticks.clear();
  eucon::BatchOptions opts;
  opts.num_workers = workers();
  opts.serial = serial;
  opts.derive_seeds = true;
  opts.seed_base = eucon::batch_run_seed(seed, rep);
  opts.metrics = &registry;
  std::vector<eucon::ExperimentResult> results;
  const std::uint32_t root =
      rec != nullptr ? rec->begin("eucon.run_batch", Rec::kNoParent, rep) : Rec::kNoParent;
  const auto t0 = Clock::now();
  try {
    results = eucon::run_batch(g.specs, opts);
  } catch (const std::exception& e) {
    if (rec != nullptr) rec->end(root);
    out.attempted += g.specs.size();
    out.failed += g.specs.size();
    out.fail(std::string("batch_sweep: a run threw: ") + e.what());
    return results;
  }
  tally.batch_s += seconds_between(t0, Clock::now());
  if (rec != nullptr) rec->end(root);
  tally.runs += results.size();

  for (std::size_t i = 0; i < results.size(); ++i) {
    const eucon::ExperimentResult& r = results[i];
    ++out.attempted;
    bool ok = r.trace.size() == static_cast<std::size_t>(kRunPeriods);
    for (const eucon::SampleRecord& s : r.trace)
      ok = ok && rates_in_box(s.rates, g.rate_min[i], g.rate_max[i]);
    if (!ok) {
      ++out.failed;
      out.fail("batch_sweep: run " + g.specs[i].name +
               " returned a non-finite or out-of-box rate vector");
    }
    for (std::size_t p = 0; p < r.set_points.size(); ++p) {
      ++tally.pairs;
      if (eucon::metrics::acceptability(r, p).acceptable()) ++tally.acceptable;
    }
    for (std::size_t t = 0; t < r.deadlines.num_tasks(); ++t)
      tally.e2e_misses += r.deadlines.task(t).e2e_misses;
    tally.completed += r.deadlines.total_completed_instances();

    const auto& ticks = g.clocks[i]->ticks;
    if (timing != nullptr) timing->open_window(i);
    for (std::size_t k = 1; k < ticks.size(); ++k) {
      const double us = us_between(ticks[k - 1], ticks[k]);
      if (timing != nullptr) timing->add(us);
      if (times != nullptr) times->push_back(us);
      if (rec != nullptr)
        rec->add("eucon.period", root, (rep * 100 + i) * 1000 + k, ticks[k - 1],
                 ticks[k]);
    }
  }
  return results;
}

Digest digest_of(const std::vector<eucon::ExperimentResult>& results) {
  Digest d;
  for (const eucon::ExperimentResult& r : results)
    for (const eucon::SampleRecord& s : r.trace) {
      d.add(s.u);
      d.add(s.rates);
    }
  return d;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Throughput of the quietest tenth (at least one) of the batches, those
// with the highest run rate: their runs over their wall time. Every batch
// runs the same grid, so the selection filters interference and never
// shifts the mix of work.
double quiet_rate(std::vector<double> rates) {
  std::sort(rates.begin(), rates.end(), std::greater<>());
  const auto kept = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(Timing::kQuietShare * static_cast<double>(rates.size()))));
  double wall_per_run = 0.0;
  for (std::size_t i = 0; i < kept; ++i) wall_per_run += 1.0 / rates[i];
  return static_cast<double>(kept) / wall_per_run;
}

}  // namespace

void batch_sweep(const Args& args, Outcome& out) {
  Grid grid = build_grid();

  // Output check: the same seed_base twice gives the same trajectories.
  // The first batch (untimed, it also warms up) is repeated as the first
  // timed batch — in the traced run as the serial batch, which the batch
  // engine promises is bit-identical to the pooled one.
  eucon::obs::Registry registry;
  Tally warm;
  const Digest d1 = digest_of(
      run_grid(grid, args.seed, 0, false, registry, nullptr, nullptr, nullptr, warm, out));
  Digest d2;

  // The program is fully built and has run; the timed phase allocates
  // nothing of the program's, only the benchmark's own samples.
  const double rss_mb = peak_rss_mb();
  std::vector<double> plain, traced;
  Tally tally;
  std::uint64_t rep = 0;
  const auto start = Clock::now();
  if (!args.trace) {
    // Period times: one window per run, the quietest runs taken per grid
    // point. Throughput: the quietest batches — a batch's wall time is set
    // by its slowest run (LARGE EUCON at etf 4), so it cannot be split into
    // windows, but whole batches can be ranked. Set-up: the median build.
    Timing timing;
    std::vector<double> batch_rate, setup_s;
    do {
      for (int i = 0; i < kSetupRepsPerBatch; ++i) {
        const auto t0 = Clock::now();
        const Grid g = build_grid();
        setup_s.push_back(seconds_between(t0, Clock::now()));
      }
      const double batch_s = tally.batch_s;
      const auto results = run_grid(grid, args.seed, rep, false, registry, &timing,
                                    nullptr, nullptr, tally, out);
      if (!results.empty())
        batch_rate.push_back(static_cast<double>(results.size()) /
                             (tally.batch_s - batch_s));
      if (rep++ == 0) d2 = digest_of(results);
    } while (seconds_between(start, Clock::now()) < args.seconds ||
             batch_rate.size() < kMinBatches);
    check_digests("batch_sweep", d1, d2, out);
    timing.report("batch_sweep", false, out);
    out.add("runs_per_s", quiet_rate(batch_rate), "1/s");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", rss_mb, "MB");
    out.add("acceptable_frac",
            ratio(static_cast<double>(tally.acceptable), static_cast<double>(tally.pairs)),
            "ratio");
    return;
  }

  // Traced run: one serial batch (run overhead, pool efficiency), then
  // pooled batches alternating untraced and traced. The traced batches get
  // a registry of their own, so its timers cover exactly them.
  const std::size_t spans_per_batch = grid.specs.size() * kRunPeriods + 1;
  const std::size_t capacity =
      static_cast<std::size_t>(args.seconds * 20000) + spans_per_batch;
  Rec rec(capacity);
  eucon::obs::Registry serial_reg, traced_reg;
  Tally serial, pooled, traced_tally;
  d2 = digest_of(
      run_grid(grid, args.seed, rep++, true, serial_reg, nullptr, nullptr, nullptr, serial, out));
  check_digests("batch_sweep", d1, d2, out);
  std::uint64_t traced_batches = 0;
  bool on = false;
  while (seconds_between(start, Clock::now()) < args.seconds || traced_batches == 0 ||
         pooled.runs == 0) {
    if (on && rec.size() + spans_per_batch <= capacity) {
      run_grid(grid, args.seed, rep++, false, traced_reg, nullptr, &traced, &rec,
               traced_tally, out);
      ++traced_batches;
    } else {
      run_grid(grid, args.seed, rep++, false, registry, nullptr, &plain, nullptr, pooled,
               out);
    }
    on = !on;
  }
  const eucon::obs::Snapshot s = traced_reg.snapshot();
  const auto counter = [&](const char* name) {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto timer = [&](const char* name) {
    const auto it = s.timers.find(name);
    return it == s.timers.end() ? eucon::obs::TimerStats{} : it->second;
  };
  const double batches = static_cast<double>(traced_batches);
  const double periods = counter("experiment.periods");
  const double updates = counter("mpc.updates");
  const eucon::obs::TimerStats period_t = timer("experiment.period");
  const eucon::obs::TimerStats advance_t = timer("sim.advance");
  const eucon::obs::TimerStats update_t = timer("mpc.update");
  const eucon::obs::TimerStats solve_t = timer("qp.solve");
  out.add("eucon.period_us", period_t.mean_us(), "us");
  out.add("rts.advance_us", advance_t.mean_us(), "us");
  out.add("rts.jobs_per_period", ratio(counter("sim.jobs_released"), periods), "count");
  out.add("rts.guard_stalls_per_period",
          ratio(counter("sim.release_guard_stalls"), periods), "count");
  out.add("rts.e2e_miss_ratio",
          ratio(static_cast<double>(traced_tally.e2e_misses),
                static_cast<double>(traced_tally.completed)),
          "ratio");
  out.add("control.update_us", update_t.mean_us(), "us");
  out.add("qp.solve_us", solve_t.mean_us(), "us");
  out.add("control.self_us", update_t.mean_us() - solve_t.mean_us(), "us");
  out.add("qp.fast_path_ratio", ratio(counter("mpc.fast_path_hits"), updates), "ratio");
  out.add("qp.iters_per_solve", ratio(counter("mpc.qp_iterations"), updates), "count");
  out.add("qp.fallbacks",
          ratio(counter("mpc.fallbacks"),
                batches * static_cast<double>(grid.eucon_runs)),
          "count/run");
  out.add("mpc.fallbacks", counter("mpc.fallbacks") / batches, "count/batch");
  out.add("mpc.fast_path_hits", counter("mpc.fast_path_hits") / batches, "count/batch");
  out.add("experiment.lost_reports", counter("experiment.lost_reports") / batches,
          "count/batch");
  const double serial_period_s =
      static_cast<double>(serial_reg.timer("experiment.period").total_ns) / 1e9;
  out.add("eucon.run_overhead_ms",
          1000.0 * (serial.batch_s - serial_period_s) / static_cast<double>(serial.runs),
          "ms");
  const double serial_rps = static_cast<double>(serial.runs) / serial.batch_s;
  const double pooled_rps = static_cast<double>(pooled.runs) / pooled.batch_s;
  out.add("common.pool_efficiency",
          pooled_rps / (static_cast<double>(workers()) * serial_rps), "ratio");
  const double covered =
      static_cast<double>(advance_t.total_ns + update_t.total_ns);
  out.add("bench.unattributed_frac",
          1.0 - ratio(covered, static_cast<double>(period_t.total_ns)), "ratio");
  out.add("bench.trace_overhead_frac",
          quantile(traced, 0.5) / quantile(plain, 0.5) - 1.0, "ratio");
  if (!args.trace_out.empty() && !rec.write_csv(args.trace_out))
    out.fail("batch_sweep: cannot write spans to " + args.trace_out);
}

}  // namespace perfbench
