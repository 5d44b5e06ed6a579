// Proves the allocation-free steady-state contract of the MPC update paths
// (central, decentralized and hierarchical): once construction and a
// warm-up stretch have grown every buffer (node gather scratch, QP
// workspace, warm-start working sets) to its high-water mark, a sampling
// period's update() — neighborhood gather, explicit-gain fast path, QP
// miss, utilization-row fallback, rate scatter included — touches the heap
// exactly zero times.
//
// The proof instrument is a replacement global operator new in this TU
// (same idiom as qp_alloc_test; it stays a separate binary so the hook
// never colors another test's measurements).
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>

#include <gtest/gtest.h>

#include "control/decentralized.h"
#include "control/hierarchical.h"
#include "control/model.h"
#include "control/mpc.h"
#include "control/sparse_model.h"
#include "eucon/workloads.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  // Allocation failure in a unit test is unrecoverable; abort instead of
  // throwing so this TU stays clear of the raw-throw rule.
  if (p == nullptr) std::abort();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace eucon::control {
namespace {

using linalg::Vector;

struct CountScope {
  CountScope() {
    g_allocs.store(0);
    g_counting.store(true);
  }
  ~CountScope() { g_counting.store(false); }
  static std::size_t count() { return g_allocs.load(); }
};

// Jiggle one measurement around its set point so every counted update does
// real control work (nonzero error, moving optimum) without the test side
// touching the heap.
void perturb(Vector& u, const Vector& b, int k) {
  u[0] = b[0] + 0.02 * static_cast<double>(k % 3 - 1);
}

// Cycles the plain MPC through its three branches: on target (fast-path
// hit), far below target (the rate box binds: QP miss) and far above it
// (no rate vector meets u <= B: the utilization rows drop, then return).
void mpc_cycle(Vector& u, const Vector& b, int k) {
  const double scale = k % 3 == 0 ? 1.0 : (k % 3 == 1 ? 0.1 : 3.0);
  for (std::size_t i = 0; i < u.size(); ++i) u[i] = scale * b[i];
}

TEST(DecentralizedAllocTest, MpcUpdateIsAllocationFreeAcrossBranches) {
  // MEDIUM's own tuning (P = 4, M = 2), and a second M = 2 controller on
  // SIMPLE with the eq. (7) penalty, whose gain input carries Δr(k-1): both
  // solve their misses over the cumulative moves with the box as bounds.
  MpcParams simple_m2 = workloads::simple_controller_params();
  simple_m2.prediction_horizon = 3;
  simple_m2.control_horizon = 2;
  simple_m2.penalty_form = PenaltyForm::kDeltaDeltaRate;
  const std::pair<rts::SystemSpec, MpcParams> inputs[] = {
      {workloads::medium(), workloads::medium_controller_params()},
      {workloads::simple(), simple_m2},
  };
  for (const auto& [spec, params] : inputs) {
    const PlantModel model = make_plant_model(spec);
    MpcController ctrl(model, params, spec.initial_rate_vector());

    Vector u = model.b;
    for (int k = 0; k < 30; ++k) {
      mpc_cycle(u, model.b, k);
      ctrl.update(u);
    }

    const std::uint64_t hits0 = ctrl.fast_path_hits();
    const std::uint64_t updates0 = ctrl.update_count();
    const std::uint64_t fallbacks0 = ctrl.fallback_count();
    {
      const CountScope scope;
      for (int k = 0; k < 30; ++k) {
        mpc_cycle(u, model.b, k);
        ctrl.update(u);
      }
    }
    EXPECT_EQ(CountScope::count(), 0u) << params.control_horizon;
    // Every branch ran inside the counted region.
    const std::uint64_t hits = ctrl.fast_path_hits() - hits0;
    EXPECT_GT(hits, 0u);
    EXPECT_GT(ctrl.update_count() - updates0 - hits, 0u);
    EXPECT_GT(ctrl.fallback_count() - fallbacks0, 0u);
  }
}

TEST(DecentralizedAllocTest, UpdateIsAllocationFreeAfterWarmup) {
  const PlantModel model = make_plant_model(workloads::medium());
  const Vector r0 = workloads::medium().initial_rate_vector();
  DecentralizedMpcController ctrl(
      model, workloads::medium_controller_params(), r0);

  Vector u = model.b;  // start on target, then jiggle around it
  // Warm-up walks the same perturbation cycle the counted phase uses, so
  // every working-set size and scratch capacity has already been seen.
  for (int k = 0; k < 40; ++k) {
    perturb(u, model.b, k);
    ctrl.update(u);
  }

  {
    const CountScope scope;
    for (int k = 0; k < 50; ++k) {
      perturb(u, model.b, k);
      ctrl.update(u);
    }
  }
  EXPECT_EQ(CountScope::count(), 0u);
}

TEST(DecentralizedAllocTest, HierarchicalUpdateIsAllocationFreeAfterWarmup) {
  workloads::ChainClusterParams params;
  params.num_processors = 32;
  params.tasks_per_processor = 2;
  params.chain_length = 3;
  const rts::SystemSpec spec = workloads::chain_cluster(params, 17);
  const SparsePlantModel model = make_sparse_plant_model(spec);
  MpcParams mpc;
  mpc.prediction_horizon = 2;
  mpc.control_horizon = 1;
  HierarchicalParams hier;
  hier.shard_size = 8;
  HierarchicalMpcController ctrl(model, mpc, hier,
                                 spec.initial_rate_vector());

  Vector u = model.b;
  for (int k = 0; k < 40; ++k) {
    perturb(u, model.b, k);
    ctrl.update(u);
  }

  {
    const CountScope scope;
    for (int k = 0; k < 50; ++k) {
      perturb(u, model.b, k);
      ctrl.update(u);
    }
  }
  EXPECT_EQ(CountScope::count(), 0u);
}

}  // namespace
}  // namespace eucon::control
