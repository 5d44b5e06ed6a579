// Hierarchical (sharded) controller: shard construction invariants, the
// coordinator's boundary reconciliation, and parity with the central MPC —
// a single all-covering shard must reproduce it exactly, and sharded runs
// must settle to the same steady state on every small-n scenario. The
// HierarchicalParallelTest suite covers the colored sweep: the coloring's
// row separation, byte-identical rates for every worker count, and errors
// raised on a worker thread reaching the caller.
#include "control/hierarchical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

#include "control/linear_plant.h"
#include "control/sparse_model.h"
#include "control/topology.h"
#include "eucon/experiment.h"
#include "eucon/workloads.h"

namespace eucon::control {
namespace {

using linalg::Vector;

MpcParams cluster_params() {
  MpcParams p;
  p.prediction_horizon = 2;
  p.control_horizon = 1;
  p.tref_over_ts = 4.0;
  return p;
}

workloads::ChainClusterParams chain_params(int n) {
  workloads::ChainClusterParams params;
  params.num_processors = n;
  params.tasks_per_processor = 2;
  params.chain_length = 3;
  return params;
}

TEST(HierarchicalTest, ShardsPartitionTasksAndCoverRows) {
  const rts::SystemSpec spec = workloads::chain_cluster(chain_params(64), 3);
  const SparsePlantModel model = make_sparse_plant_model(spec);
  HierarchicalParams hier;
  hier.shard_size = 16;
  HierarchicalMpcController ctrl(model, cluster_params(), hier,
                                 spec.initial_rate_vector());
  ASSERT_EQ(ctrl.num_shards(), 4u);

  std::vector<int> owned_count(model.num_tasks(), 0);
  for (std::size_t s = 0; s < ctrl.num_shards(); ++s)
    for (std::size_t j : ctrl.shard_tasks(s)) ++owned_count[j];
  for (std::size_t j = 0; j < model.num_tasks(); ++j)
    EXPECT_EQ(owned_count[j], 1) << "task " << j;

  // Shard tasks follow the shared ownership rule, and every row a shard's
  // tasks touch is observed by that shard.
  const OwnershipTopology topo = compute_ownership(model.f);
  for (std::size_t s = 0; s < ctrl.num_shards(); ++s) {
    const auto& rows = ctrl.shard_rows(s);
    for (std::size_t j : ctrl.shard_tasks(s)) {
      EXPECT_EQ(ctrl.shard_of_processor(topo.owner[j]), s);
      for (std::size_t q = 0; q < model.num_processors(); ++q)
        if (model.f.at(q, j) > 0.0) {
          EXPECT_TRUE(std::find(rows.begin(), rows.end(), q) != rows.end())
              << "shard " << s << " misses row " << q;
        }
    }
  }
}

TEST(HierarchicalTest, BoundarySharesSumToOnePerRow) {
  const rts::SystemSpec spec = workloads::chain_cluster(chain_params(64), 5);
  const SparsePlantModel model = make_sparse_plant_model(spec);
  HierarchicalParams hier;
  hier.shard_size = 8;
  HierarchicalMpcController ctrl(model, cluster_params(), hier,
                                 spec.initial_rate_vector());
  Vector total(model.num_processors(), 0.0);
  bool any_boundary = false;
  for (std::size_t s = 0; s < ctrl.num_shards(); ++s) {
    const auto& rows = ctrl.shard_rows(s);
    const Vector& share = ctrl.shard_row_shares(s);
    for (std::size_t qi = 0; qi < rows.size(); ++qi) {
      EXPECT_GT(share[qi], 0.0);
      EXPECT_LE(share[qi], 1.0 + 1e-12);
      if (share[qi] < 1.0 - 1e-12) any_boundary = true;
      total[rows[qi]] += share[qi];
    }
  }
  EXPECT_TRUE(any_boundary) << "chain workload must produce boundary rows";
  for (std::size_t q = 0; q < total.size(); ++q)
    EXPECT_NEAR(total[q], 1.0, 1e-12) << "row " << q;
}

TEST(HierarchicalTest, SingleShardReproducesCentralMpcExactly) {
  // One shard covering every processor: the local model is the full model
  // (chain workloads touch every processor, so rows and columns come out
  // in identity order), the coordinator shares are all 1, and the
  // controller must follow the central MPC bit for bit.
  const rts::SystemSpec spec = workloads::chain_cluster(chain_params(16), 7);
  const SparsePlantModel model = make_sparse_plant_model(spec);
  const Vector r0 = spec.initial_rate_vector();
  HierarchicalParams hier;
  hier.shard_size = 16;
  HierarchicalMpcController sharded(model, cluster_params(), hier, r0);
  ASSERT_EQ(sharded.num_shards(), 1u);
  MpcController central(model.to_dense(), cluster_params(), r0);

  SparseLinearPlant plant(model, Vector(model.num_processors(), 1.0), r0);
  Vector u = plant.utilization();
  for (int k = 0; k < 40; ++k) {
    const Vector& r_sharded = sharded.update(u);
    const Vector& r_central = central.update(u);
    for (std::size_t j = 0; j < r_sharded.size(); ++j)
      ASSERT_EQ(r_sharded[j], r_central[j]) << "period " << k << " task " << j;
    u = plant.step(r_sharded);
  }
}

TEST(HierarchicalTest, ShardedConvergesToCentralFixpointOnSmallClusters) {
  // Shard-boundary reconciliation: on every n <= 128 chain scenario the
  // sharded controller must settle to the same steady-state utilization
  // the central MPC reaches — u = b on every processor (the plant's gains
  // make the set points reachable), despite every local MPC seeing only
  // its slice of the plant through the staggered Gauss–Seidel sweeps.
  for (const int n : {16, 32, 128}) {
    const rts::SystemSpec spec = workloads::chain_cluster(chain_params(n), 21);
    const SparsePlantModel model = make_sparse_plant_model(spec);
    const Vector r0 = spec.initial_rate_vector();
    const Vector gains(model.num_processors(), 1.0);

    HierarchicalParams hier;
    hier.shard_size = 8;  // forces many shards and real boundary traffic
    HierarchicalMpcController sharded(model, cluster_params(), hier, r0);
    SparseLinearPlant plant_s(model, gains, r0);
    Vector u_s = plant_s.utilization();
    for (int k = 0; k < 200; ++k) u_s = plant_s.step(sharded.update(u_s));

    MpcController central(model.to_dense(), cluster_params(), r0);
    SparseLinearPlant plant_c(model, gains, r0);
    Vector u_c = plant_c.utilization();
    for (int k = 0; k < 200; ++k) u_c = plant_c.step(central.update(u_c));

    for (std::size_t p = 0; p < model.num_processors(); ++p) {
      EXPECT_NEAR(u_c[p], model.b[p], 0.005) << "central n=" << n << " P" << p;
      EXPECT_NEAR(u_s[p], model.b[p], 0.005) << "sharded n=" << n << " P" << p;
      EXPECT_NEAR(u_s[p], u_c[p], 0.005) << "parity n=" << n << " P" << p;
    }
  }
}

TEST(HierarchicalTest, CoordinationGainDampsBoundaryActuation) {
  const rts::SystemSpec spec = workloads::chain_cluster(chain_params(32), 9);
  const SparsePlantModel model = make_sparse_plant_model(spec);
  const Vector r0 = spec.initial_rate_vector();
  HierarchicalParams hier;
  hier.shard_size = 8;
  hier.coordination_gain = 0.5;
  HierarchicalMpcController ctrl(model, cluster_params(), hier, r0);
  // Damped coordination still converges to the same fixpoint, just slower.
  SparseLinearPlant plant(model, Vector(model.num_processors(), 1.0), r0);
  Vector u = plant.utilization();
  for (int k = 0; k < 200; ++k) u = plant.step(ctrl.update(u));
  for (std::size_t p = 0; p < model.num_processors(); ++p)
    EXPECT_NEAR(u[p], model.b[p], 0.005) << "P" << p;
}

TEST(HierarchicalTest, SharedWorkspaceSizesToLargestShard) {
  const rts::SystemSpec spec = workloads::chain_cluster(chain_params(64), 13);
  const SparsePlantModel model = make_sparse_plant_model(spec);
  HierarchicalParams hier;
  hier.shard_size = 16;
  HierarchicalMpcController ctrl(model, cluster_params(), hier,
                                 spec.initial_rate_vector());
  const auto [vars, cons] = ctrl.workspace_capacity();
  // Largest shard: |owned| * M decision variables — far below the m * M a
  // per-cluster workspace would hold.
  EXPECT_EQ(vars, ctrl.max_shard_problem_size());
  EXPECT_LT(vars, model.num_tasks());
  EXPECT_GT(cons, 0u);
}

TEST(HierarchicalTest, RunsUnderTheExperimentHarness) {
  ExperimentConfig cfg;
  cfg.spec = workloads::medium();
  cfg.controller = ControllerKind::kHierarchical;
  cfg.mpc = workloads::medium_controller_params();
  cfg.hier.shard_size = 2;
  cfg.sim.etf = rts::EtfProfile::constant(0.5);
  cfg.sim.jitter = 0.2;
  cfg.sim.seed = 7;
  cfg.num_periods = 200;
  const ExperimentResult res = run_experiment(cfg);
  ASSERT_EQ(res.trace.size(), 200u);
  const linalg::Vector b = make_plant_model(cfg.spec).b;
  for (std::size_t p = 0; p < 4; ++p) {
    double mean = 0.0;
    for (int k = 150; k < 200; ++k) mean += res.trace[static_cast<std::size_t>(k)].u[p];
    mean /= 50.0;
    EXPECT_NEAR(mean, b[p], 0.05) << "P" << p;
  }
}

TEST(HierarchicalTest, SerialAndPooledBatchesAreByteIdentical) {
  // The sharded controller must keep run_batch's determinism contract:
  // pooled execution produces the same traces as serial, bit for bit.
  std::vector<ExperimentSpec> specs;
  for (int i = 0; i < 4; ++i) {
    ExperimentSpec s;
    s.name = "hier-" + std::to_string(i);
    s.config.spec = workloads::medium();
    s.config.controller = ControllerKind::kHierarchical;
    s.config.mpc = workloads::medium_controller_params();
    s.config.hier.shard_size = 1 + static_cast<std::size_t>(i);
    s.config.sim.etf = rts::EtfProfile::constant(0.4 + 0.1 * i);
    s.config.sim.seed = 100 + static_cast<std::uint64_t>(i);
    s.config.num_periods = 60;
    specs.push_back(std::move(s));
  }
  BatchOptions serial;
  serial.serial = true;
  BatchOptions pooled;
  pooled.num_workers = 4;
  const auto a = run_batch(specs, serial);
  const auto b = run_batch(specs, pooled);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].trace.size(), b[i].trace.size());
    for (std::size_t k = 0; k < a[i].trace.size(); ++k) {
      EXPECT_EQ(a[i].trace[k].u, b[i].trace[k].u);
      EXPECT_EQ(a[i].trace[k].rates, b[i].trace[k].rates);
    }
  }
}

TEST(HierarchicalTest, RejectsBadConfig) {
  const SparsePlantModel model = make_sparse_plant_model(workloads::simple());
  const Vector r0 = workloads::simple().initial_rate_vector();
  HierarchicalParams bad;
  bad.shard_size = 0;
  EXPECT_THROW(HierarchicalMpcController(model, cluster_params(), bad, r0),
               std::invalid_argument);
  bad.shard_size = 4;
  bad.coordination_gain = 0.0;
  EXPECT_THROW(HierarchicalMpcController(model, cluster_params(), bad, r0),
               std::invalid_argument);
  HierarchicalParams ok;
  HierarchicalMpcController ctrl(model, cluster_params(), ok, r0);
  EXPECT_THROW(ctrl.update(Vector{0.5}), std::invalid_argument);
  EXPECT_THROW(ctrl.shard_tasks(99), std::invalid_argument);
  EXPECT_THROW(ctrl.shard_of_processor(99), std::invalid_argument);
}


// ---------------------------------------------------------------------------
// The colored parallel sweep.
// ---------------------------------------------------------------------------

TEST(HierarchicalParallelTest, ColorsNeverShareARow) {
  // Chain clusters are rings: 8 shards (n = 64) close an even cycle and
  // need two colors, 125 (n = 1000) an odd one and need three.
  for (const auto& [n, colors] : {std::pair{64, 2u}, std::pair{1000, 3u}}) {
    const rts::SystemSpec spec = workloads::chain_cluster(chain_params(n), 23);
    const SparsePlantModel model = make_sparse_plant_model(spec);
    HierarchicalParams hier;
    hier.shard_size = 8;
    HierarchicalMpcController ctrl(model, cluster_params(), hier,
                                   spec.initial_rate_vector());
    ASSERT_EQ(ctrl.num_partitions(), 2u);
    EXPECT_EQ(ctrl.num_colors(0), colors) << "n=" << n;
    for (std::size_t part = 0; part < ctrl.num_partitions(); ++part) {
      const std::size_t num_colors = ctrl.num_colors(part);
      // seen_by[c][q]: the shard of color c that observes row q, if any.
      std::vector<std::vector<std::size_t>> seen_by(
          num_colors,
          std::vector<std::size_t>(model.num_processors(),
                                   HierarchicalMpcController::kNoColor));
      for (std::size_t s = 0; s < ctrl.num_shards(part); ++s) {
        const std::size_t c = ctrl.shard_color(s, part);
        if (ctrl.shard_tasks(s, part).empty()) {
          EXPECT_EQ(c, HierarchicalMpcController::kNoColor);
          continue;
        }
        ASSERT_LT(c, num_colors) << "n=" << n << " shard " << s;
        for (std::size_t q : ctrl.shard_rows(s, part)) {
          EXPECT_EQ(seen_by[c][q], HierarchicalMpcController::kNoColor)
              << "n=" << n << " partition " << part << ": shards "
              << seen_by[c][q] << " and " << s << " of color " << c
              << " share row " << q;
          seen_by[c][q] = s;
        }
      }
    }
  }
}

TEST(HierarchicalParallelTest, RatesAreByteIdenticalForEveryWorkerCount) {
  const rts::SystemSpec spec = workloads::chain_cluster(chain_params(1000), 29);
  const SparsePlantModel model = make_sparse_plant_model(spec);
  const Vector r0 = spec.initial_rate_vector();
  std::vector<Vector> reference;
  for (const std::size_t workers : {1u, 2u, 3u, 4u}) {
    HierarchicalParams hier;
    hier.shard_size = 32;
    hier.workers = workers;
    HierarchicalMpcController ctrl(model, cluster_params(), hier, r0);
    ASSERT_EQ(ctrl.workers(), workers);
    SparseLinearPlant plant(model, Vector(model.num_processors(), 1.0), r0);
    Rng rng(31);
    for (std::size_t k = 0; k < 60; ++k) {
      // Read a handful of processors off their set points each period so
      // every color keeps solving real QPs.
      Vector u = plant.utilization();
      for (int d = 0; d < 10; ++d) {
        const std::size_t p = rng.next_u64() % u.size();
        u[p] = std::clamp(model.b[p] + rng.uniform(-0.05, 0.05), 0.0, 1.0);
      }
      const Vector& rates = ctrl.update(u);
      if (workers == 1) {
        reference.push_back(rates);
      } else {
        ASSERT_EQ(std::memcmp(rates.data().data(), reference[k].data().data(),
                              rates.size() * sizeof(double)),
                  0)
            << "workers=" << workers << " period " << k;
      }
      plant.step(rates);
    }
  }
}

TEST(HierarchicalParallelTest, WorkerNumericErrorIsRethrownOnTheCaller) {
  if (!kNumericChecksEnabled)
    GTEST_SKIP() << "libraries built without EUCON_NUMERIC_CHECKS";
  const rts::SystemSpec spec = workloads::chain_cluster(chain_params(1000), 37);
  const SparsePlantModel model = make_sparse_plant_model(spec);
  HierarchicalParams hier;
  hier.shard_size = 32;
  hier.workers = 4;
  // The first update sweeps the base partition. Processor 32·s + 10 (or
  // + 20) is interior to shard s: no other shard observes it, and the
  // NaN shows up as "entry <its local row>" of that shard's input.
  const auto shard_on_worker = [&](const HierarchicalMpcController& ctrl,
                                   std::size_t worker) {
    for (std::size_t s = 1; s + 1 < ctrl.num_shards(); ++s)
      if (ctrl.shard_worker(s) == worker) return s;
    ADD_FAILURE() << "no interior shard on worker " << worker;
    return std::size_t{0};
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  {
    HierarchicalMpcController ctrl(model, cluster_params(), hier,
                                   spec.initial_rate_vector());
    Vector u = model.b;
    u[32 * shard_on_worker(ctrl, 2) + 10] = nan;
    EXPECT_THROW(ctrl.update(u), NumericError);
  }
  {
    // Two chunks throw; the lower participant's error wins.
    HierarchicalMpcController ctrl(model, cluster_params(), hier,
                                   spec.initial_rate_vector());
    const std::size_t low = shard_on_worker(ctrl, 1);
    const std::size_t high = shard_on_worker(ctrl, 3);
    ASSERT_EQ(ctrl.shard_color(low), ctrl.shard_color(high));
    Vector u = model.b;
    u[32 * high + 20] = nan;
    u[32 * low + 10] = nan;
    const std::vector<std::size_t>& rows = ctrl.shard_rows(low);
    const auto local_row =
        std::find(rows.begin(), rows.end(), 32 * low + 10) - rows.begin();
    const std::string expected = "entry " + std::to_string(local_row) + " of";
    try {
      ctrl.update(u);
      ADD_FAILURE() << "expected NumericError";
    } catch (const NumericError& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what() << " (expected " << expected << ")";
    }
  }
}

TEST(HierarchicalParallelTest, AutoWorkersKeepSmallSystemsSerial) {
  // n = 64 at shard size 8: four shards per color, under the
  // kMinShardsPerWorker floor, so auto mode starts no thread.
  const rts::SystemSpec spec = workloads::chain_cluster(chain_params(64), 41);
  const SparsePlantModel model = make_sparse_plant_model(spec);
  HierarchicalParams hier;
  hier.shard_size = 8;
  HierarchicalMpcController ctrl(model, cluster_params(), hier,
                                 spec.initial_rate_vector());
  EXPECT_EQ(ctrl.workers(), 1u);

  hier.workers = ForkJoinTeam::kMaxSize + 1;
  EXPECT_THROW(HierarchicalMpcController(model, cluster_params(), hier,
                                         spec.initial_rate_vector()),
               std::invalid_argument);
}

}  // namespace
}  // namespace eucon::control
