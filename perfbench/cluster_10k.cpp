// cluster_10k: the cluster-scale control plane — a 10,000-processor chain
// cluster (20k tasks, subtask decay 0.15) under the sharded
// HierarchicalMpcController (shard_size 32, soft constraints, set points
// pinned to a jointly reachable interior target as in bench_scaling),
// closed over the idealized SparseLinearPlant. After the loop settles,
// each period first disturbs about 1% of the processors (seeded, outside
// the timed region), then times one controller update plus one plant step.
// control/qp/linalg do all the work and rts none, so a simulator change
// must read as no change here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "bench.h"
#include "common/rng.h"
#include "common/stats.h"
#include "eucon/eucon.h"
#include "spans.h"

namespace perfbench {
namespace {

using eucon::linalg::Vector;
using Rec = SpanRecorder;

constexpr int kProcessors = 10000;
// The cluster instance is fixed (bench_scaling's n = 10k instance), so
// every seed times the same control problem; the workload seed drives the
// disturbances.
constexpr std::uint64_t kInstanceSeed = 40 + kProcessors;
constexpr std::size_t kShardSize = 32;
constexpr int kDigestPeriods = 40;    // cold-start trajectory run twice
constexpr int kSettlePeriods = 150;   // bench_scaling's settle length
constexpr double kSettledErr = 0.02;  // max |u - b| before timing starts
constexpr std::size_t kDisturbed = kProcessors / 100;
constexpr int kSetupReps = 3;
constexpr int kRunPeriods = 300;  // the paper's run length, for runs_per_s
constexpr std::uint64_t kWindowPeriods = 10;  // ~0.3 s per timing window

eucon::control::MpcParams controller_params() {
  eucon::control::MpcParams p;
  p.prediction_horizon = 2;
  p.control_horizon = 1;
  p.tref_over_ts = 4.0;
  // Interior set points make hard u <= b rows meaningless and can wedge
  // shard-blocked equilibria (see bench_scaling.cpp).
  p.constraint_mode = eucon::control::ConstraintMode::kSoftOnly;
  return p;
}

eucon::workloads::ChainClusterParams cluster_params() {
  eucon::workloads::ChainClusterParams c;
  c.num_processors = kProcessors;
  c.tasks_per_processor = 2;
  c.chain_length = 3;
  c.subtask_decay = 0.15;
  return c;
}

// Set points b := F r* with r* at a fixed fraction of each rate range
// (scaled down until no row exceeds 0.9): jointly reachable, so u = b is a
// true fixpoint and "settled" measures convergence, not feasibility. The
// same rule as bench_scaling's scenarios.
eucon::control::SparsePlantModel pin_reachable_set_points(
    eucon::control::SparsePlantModel model) {
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

struct SetupTimes {
  double gen_s = 0.0, model_s = 0.0, ctor_s = 0.0, total_s = 0.0;
};

struct Cluster {
  eucon::control::SparsePlantModel model;
  std::unique_ptr<eucon::control::HierarchicalMpcController> ctrl;
  std::unique_ptr<eucon::control::SparseLinearPlant> plant;
};

// Workload generation, model build, controller and plant construction.
// The first three are timed on their own and, when tracing, become child
// spans of one bench.setup span.
Cluster build(SetupTimes& t, Rec* rec, std::uint64_t rep) {
  const auto t0 = Clock::now();
  const std::uint32_t root =
      rec != nullptr ? rec->begin("bench.setup", Rec::kNoParent, rep) : Rec::kNoParent;
  const auto timed = [&](const char* name, auto&& f) {
    const auto a = Clock::now();
    f();
    const auto b = Clock::now();
    if (rec != nullptr) rec->add(name, root, rep, a, b);
    return seconds_between(a, b);
  };
  Cluster c;
  eucon::rts::SystemSpec spec;
  t.gen_s = timed("eucon.workload_gen", [&] {
    spec = eucon::workloads::chain_cluster(cluster_params(), kInstanceSeed);
  });
  const Vector r0 = spec.initial_rate_vector();
  t.model_s = timed("control.model_build", [&] {
    c.model = pin_reachable_set_points(eucon::control::make_sparse_plant_model(spec));
  });
  t.ctor_s = timed("control.ctor", [&] {
    eucon::control::HierarchicalParams hier;
    hier.shard_size = kShardSize;
    c.ctrl = std::make_unique<eucon::control::HierarchicalMpcController>(
        c.model, controller_params(), hier, r0);
  });
  c.plant = std::make_unique<eucon::control::SparseLinearPlant>(
      c.model, Vector(c.model.num_processors(), 1.0), r0);
  t.total_s = seconds_between(t0, Clock::now());
  if (rec != nullptr) rec->end(root);
  return c;
}

// One closed-loop period: controller update on the measurement `u`, then
// one plant step. Returns the rates the controller commanded.
const Vector& step(Cluster& c, const Vector& u, Rec* rec, std::uint64_t pid) {
  if (rec == nullptr) {
    const Vector& rates = c.ctrl->update(u);
    c.plant->step(rates);
    return rates;
  }
  const std::uint32_t root = rec->begin("eucon.period", Rec::kNoParent, pid);
  std::uint32_t id = rec->begin("control.sweep", root, pid);
  const Vector& rates = c.ctrl->update(u);
  rec->end(id);
  id = rec->begin("control.plant_step", root, pid);
  c.plant->step(rates);
  rec->end(id);
  rec->end(root);
  return rates;
}

// The measurement the controller sees: the plant's utilizations with about
// 1% of the processors read off their set points (seeded, and drawn
// outside any timing). The plant state itself is left alone, so the
// disturbance is transient and the loop's equilibrium — and with it the
// period cost — stays stationary over a run of any length.
const Vector& disturbed(const Cluster& c, eucon::Rng& rng, Vector& scratch) {
  scratch = c.plant->utilization();
  const std::size_t n = scratch.size();
  for (std::size_t i = 0; i < kDisturbed; ++i) {
    const auto p = static_cast<std::size_t>(rng.next_u64() % n);
    const double mag = rng.uniform(0.01, 0.05);
    const double sign = rng.next_double() < 0.5 ? -1.0 : 1.0;
    scratch[p] = std::clamp(c.model.b[p] + sign * mag, 0.0, 1.0);
  }
  return scratch;
}

void check_rates(const Cluster& c, const Vector& rates, const char* phase,
                 Outcome& out) {
  ++out.attempted;
  if (!rates_in_box(rates.data(), c.model.rate_min, c.model.rate_max)) {
    ++out.failed;
    out.fail(std::string("cluster_10k: a ") + phase +
             " period returned a non-finite or out-of-box rate vector");
  }
}

}  // namespace

void cluster_10k(const Args& args, Outcome& out) {
  std::optional<Rec> rec;
  if (args.trace) rec.emplace(static_cast<std::size_t>(args.seconds * 300) + 4096);
  Rec* trace = rec ? &*rec : nullptr;
  std::vector<SetupTimes> setups(kSetupReps);

  // Output check: two independent constructions run the same seeded,
  // disturbed cold-start trajectory bit for bit. The last one then settles
  // and is timed; the middle one only adds a set-up sample.
  Vector scratch;
  Digest d1, d2;
  {
    Cluster a = build(setups[0], trace, 0);
    eucon::Rng rng(eucon::batch_run_seed(args.seed, 0));
    for (int k = 0; k < kDigestPeriods; ++k) {
      const Vector& r = step(a, disturbed(a, rng, scratch), nullptr, 0);
      check_rates(a, r, "cold-start", out);
      d1.add(a.plant->utilization());
      d1.add(r);
    }
  }
  { const Cluster spare = build(setups[1], trace, 1); }
  Cluster c = build(setups[2], trace, 2);
  {
    eucon::Rng rng(eucon::batch_run_seed(args.seed, 0));
    for (int k = 0; k < kSettlePeriods; ++k) {
      const Vector& r = step(c, k < kDigestPeriods ? disturbed(c, rng, scratch)
                                                   : c.plant->utilization(),
                             nullptr, 0);
      check_rates(c, r, "settling", out);
      if (k < kDigestPeriods) {
        d2.add(c.plant->utilization());
        d2.add(r);
      }
    }
  }
  check_digests("cluster_10k", d1, d2, out);
  double settle_err = 0.0;
  for (std::size_t p = 0; p < c.model.num_processors(); ++p)
    settle_err = std::max(settle_err, std::abs(c.plant->utilization()[p] - c.model.b[p]));
  std::fprintf(stderr, "perfbench: cluster_10k: settled to max |u-b| = %.3g\n",
               settle_err);
  if (!(settle_err < kSettledErr))
    out.fail("cluster_10k: loop did not settle before the timed phase (max |u-b| = " +
             std::to_string(settle_err) + ")");

  // Timed phase. In the traced run, blocks of ten periods alternate between
  // untraced and traced so drift hits both alike.
  // The program is fully built and has run; the timed phase allocates
  // nothing of the program's, only the benchmark's own samples.
  const double rss_mb = peak_rss_mb();
  eucon::Rng rng(eucon::batch_run_seed(args.seed, 1));
  std::vector<eucon::RunningStats> u_stats(c.model.num_processors());
  Timing timing;  // untraced periods, in windows of kWindowPeriods
  std::vector<double> plain, traced;  // traced run: the two halves
  std::uint64_t pid = 0;
  const auto start = Clock::now();
  while (seconds_between(start, Clock::now()) < args.seconds ||
         (!args.trace && timing.samples() < Timing::kMinSamples)) {
    const bool on = trace != nullptr && (pid / kWindowPeriods) % 2 == 1 && !rec->full();
    if (pid % kWindowPeriods == 0) timing.open_window();
    ++pid;
    const Vector& u_seen = disturbed(c, rng, scratch);
    const auto t0 = Clock::now();
    const Vector& r = step(c, u_seen, on ? trace : nullptr, pid);
    const auto t1 = Clock::now();
    const double us = us_between(t0, t1);
    if (args.trace) {
      (on ? traced : plain).push_back(us);
    } else {
      timing.add(us);
      timing.current().wall_s += us / 1e6;
      timing.current().runs += 1.0 / kRunPeriods;
    }
    check_rates(c, r, "timed", out);
    const Vector& u = c.plant->utilization();
    for (std::size_t p = 0; p < u.size(); ++p) u_stats[p].add(u[p]);
  }

  std::vector<double> total, gen, model, ctor;
  for (const SetupTimes& s : setups) {
    total.push_back(s.total_s);
    gen.push_back(s.gen_s);
    model.push_back(s.model_s);
    ctor.push_back(s.ctor_s);
  }
  if (!args.trace) {
    // The paper's §7.1 criterion over the timed window, per processor.
    std::size_t acceptable = 0;
    for (std::size_t p = 0; p < u_stats.size(); ++p)
      if (std::abs(u_stats[p].mean() - c.model.b[p]) <= 0.02 &&
          u_stats[p].stddev() < 0.05)
        ++acceptable;
    timing.report("cluster_10k", true, out);
    out.add("setup_s", median(total), "s");
    out.add("peak_rss_mb", rss_mb, "MB");
    out.add("acceptable_frac",
            static_cast<double>(acceptable) / static_cast<double>(u_stats.size()),
            "ratio");
    return;
  }
  const auto t = rec->totals();
  const auto periods = static_cast<std::uint64_t>(traced.size());
  out.add("control.sweep_us", per_period_us(t, "control.sweep", periods), "us");
  out.add("control.plant_step_us", per_period_us(t, "control.plant_step", periods), "us");
  out.add("control.shards_per_period", static_cast<double>(c.ctrl->num_shards()), "count");
  out.add("eucon.workload_gen_s", median(gen), "s");
  out.add("control.model_build_s", median(model), "s");
  out.add("control.ctor_s", median(ctor), "s");
  out.add("bench.unattributed_frac", unattributed_frac(t, "eucon.period"), "ratio");
  out.add("bench.trace_overhead_frac",
          quantile(traced, 0.5) / quantile(plain, 0.5) - 1.0, "ratio");
  if (!args.trace_out.empty() && !rec->write_csv(args.trace_out))
    out.fail("cluster_10k: cannot write spans to " + args.trace_out);
}

}  // namespace perfbench
