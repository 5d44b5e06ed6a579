// Proves the allocation-free contract of the workspace QP path: after a
// warm-up solve has grown every buffer to its high-water mark, repeated
// solves through solve_qp_into / LsqlinSolver::solve_into — phase-1,
// range-space steps, bounds, line search, warm-start write-back included —
// touch the heap exactly zero times.
//
// The proof instrument is a replacement global operator new in this TU
// (it governs the whole test binary) that bumps a counter while a test
// has counting switched on. Outside the counted regions it is a plain
// malloc shim, so gtest machinery is unaffected.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "qp/active_set.h"
#include "qp/lsqlin.h"

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

namespace eucon::qp {
namespace {

using linalg::Matrix;
using linalg::Vector;

struct CountScope {
  CountScope() {
    g_allocs.store(0);
    g_counting.store(true);
  }
  ~CountScope() { g_counting.store(false); }
  static std::size_t count() { return g_allocs.load(); }
};

// A dense box-constrained QP whose optimum pins several constraints, so
// every steady-state solve runs the full active-set loop (subproblem
// solves, line searches, working-set churn) rather than terminating
// immediately.
struct DenseQpFixture {
  static constexpr std::size_t kN = 6;
  static constexpr std::size_t kM = 12;
  Matrix h = Matrix(kN, kN);
  Vector f = Vector(kN);
  Matrix a = Matrix(kM, kN);
  Vector b = Vector(kM);
  Vector x0 = Vector(kN);

  Matrix l;  // factor of h + εI, what solve_qp_into takes
  const Vector none;

  DenseQpFixture() {
    for (std::size_t i = 0; i < kN; ++i) {
      h(i, i) = 2.0 + 0.1 * static_cast<double>(i);
      f[i] = -4.0 * static_cast<double>(i + 1);
      a(i, i) = 1.0;
      b[i] = 1.0;
      a(kN + i, i) = -1.0;
      b[kN + i] = 1.0;
    }
    EXPECT_TRUE(factor_hessian(h, Options{}.regularization, l));
  }
};

TEST(QpAllocTest, SolveQpIntoIsAllocationFreeAfterWarmup) {
  DenseQpFixture fx;
  QpWorkspace ws;
  ws.reserve(fx.kN, fx.kM);
  Result out;
  WarmStart warm;
  // Warm-up: grows out.x, warm.working, and every workspace buffer to
  // steady-state capacity. Two passes so the write-back path has already
  // seen its largest working set.
  solve_qp_into(fx.l, fx.f, fx.a, fx.b, fx.none, fx.none,
                &fx.x0, {}, &warm, ws, out);
  ASSERT_EQ(out.status, Status::kOptimal);
  solve_qp_into(fx.l, fx.f, fx.a, fx.b, fx.none, fx.none,
                &fx.x0, {}, &warm, ws, out);
  ASSERT_EQ(out.status, Status::kOptimal);

  int optimal = 0;
  {
    const CountScope scope;
    for (int k = 0; k < 50; ++k) {
      // Perturb the gradient in place so each solve does real work (the
      // optimum moves), without touching the heap from the test side.
      fx.f[0] = -4.0 - 0.01 * static_cast<double>(k % 7);
      solve_qp_into(fx.l, fx.f, fx.a, fx.b, fx.none, fx.none,
                    &fx.x0, {}, &warm, ws, out);
      if (out.status == Status::kOptimal) ++optimal;
    }
  }
  EXPECT_EQ(optimal, 50);
  EXPECT_EQ(CountScope::count(), 0u);
}

TEST(QpAllocTest, ColdStartPhase1PathIsAllocationFreeAfterWarmup) {
  // No x0: every solve runs the phase-1 auxiliary QP inside the same
  // workspace. That path must be as allocation-free as the main loop.
  DenseQpFixture fx;
  QpWorkspace ws;
  ws.reserve(fx.kN, fx.kM);
  Result out;
  solve_qp_into(fx.l, fx.f, fx.a, fx.b, fx.none, fx.none,
                nullptr, {}, nullptr, ws, out);
  ASSERT_EQ(out.status, Status::kOptimal);

  int optimal = 0;
  {
    const CountScope scope;
    for (int k = 0; k < 20; ++k) {
      solve_qp_into(fx.l, fx.f, fx.a, fx.b, fx.none, fx.none,
                    nullptr, {}, nullptr, ws, out);
      if (out.status == Status::kOptimal) ++optimal;
    }
  }
  EXPECT_EQ(optimal, 20);
  EXPECT_EQ(CountScope::count(), 0u);
}

// The fixture's box as native bounds, with one general row left in A: the
// bound line-search, activity and Schur paths must be as heap-free as the
// dense ones.
struct BoundedQpFixture {
  static constexpr std::size_t kN = DenseQpFixture::kN;
  DenseQpFixture dense;
  Matrix a = Matrix(1, kN, 1.0);  // sum(x) <= 4
  Vector b = Vector(1, 4.0);
  Vector lb = Vector(kN, -1.0);
  Vector ub = Vector(kN, 1.0);
};

TEST(QpAllocTest, BoundedWarmSolvesAreAllocationFreeAfterWarmup) {
  BoundedQpFixture fx;
  DenseQpFixture& d = fx.dense;
  QpWorkspace ws;
  ws.reserve(fx.kN, fx.a.rows());
  Result out;
  WarmStart warm;
  for (int pass = 0; pass < 2; ++pass) {
    solve_qp_into(d.l, d.f, fx.a, fx.b, fx.lb, fx.ub, &d.x0, {}, &warm, ws,
                  out);
    ASSERT_EQ(out.status, Status::kOptimal);
  }

  int optimal = 0;
  {
    const CountScope scope;
    for (int k = 0; k < 50; ++k) {
      d.f[0] = -4.0 - 0.01 * static_cast<double>(k % 7);
      solve_qp_into(d.l, d.f, fx.a, fx.b, fx.lb, fx.ub, &d.x0, {}, &warm, ws,
                    out);
      if (out.status == Status::kOptimal) ++optimal;
    }
  }
  EXPECT_EQ(optimal, 50);
  EXPECT_EQ(CountScope::count(), 0u);
}

TEST(QpAllocTest, BoundedPhase1PathIsAllocationFreeAfterWarmup) {
  // Lower bounds above zero: every cold solve runs phase 1 with the box.
  BoundedQpFixture fx;
  DenseQpFixture& d = fx.dense;
  for (std::size_t j = 0; j < fx.kN; ++j) fx.lb[j] = 0.25;
  QpWorkspace ws;
  ws.reserve(fx.kN, fx.a.rows());
  Result out;
  solve_qp_into(d.l, d.f, fx.a, fx.b, fx.lb, fx.ub, nullptr, {}, nullptr, ws,
                out);
  ASSERT_EQ(out.status, Status::kOptimal);

  int optimal = 0;
  {
    const CountScope scope;
    for (int k = 0; k < 20; ++k) {
      solve_qp_into(d.l, d.f, fx.a, fx.b, fx.lb, fx.ub, nullptr, {}, nullptr,
                    ws, out);
      if (out.status == Status::kOptimal) ++optimal;
    }
  }
  EXPECT_EQ(optimal, 20);
  EXPECT_EQ(CountScope::count(), 0u);
}

TEST(QpAllocTest, LsqlinQpFallbackIsAllocationFreeAfterWarmup) {
  // The MPC-shaped call: LsqlinSolver::solve_into with a caller-owned
  // workspace, target far outside the box so the fast path always misses
  // and the QP fallback runs every period.
  const std::size_t n = 4;
  Matrix c(n, n);
  for (std::size_t i = 0; i < n; ++i) c(i, i) = 1.0;
  Vector d(n, 5.0);  // unconstrained minimizer x = d, far beyond the box
  Matrix a(2 * n, n);
  Vector b(2 * n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 1.0;
    a(n + i, i) = -1.0;
  }

  LsqlinSolver solver(c);
  QpWorkspace ws;
  ws.reserve(c.cols(), a.rows());
  LsqlinResult out;
  WarmStart warm;
  solver.solve_into(d, a, b, nullptr, {}, &warm, ws, out);
  ASSERT_EQ(out.status, Status::kOptimal);
  ASSERT_FALSE(out.fast_path);
  solver.solve_into(d, a, b, nullptr, {}, &warm, ws, out);
  ASSERT_EQ(out.status, Status::kOptimal);

  int optimal = 0;
  int slow_path = 0;
  {
    const CountScope scope;
    for (int k = 0; k < 50; ++k) {
      d[0] = 5.0 + 0.01 * static_cast<double>(k % 5);
      solver.solve_into(d, a, b, nullptr, {}, &warm, ws, out);
      if (out.status == Status::kOptimal) ++optimal;
      if (!out.fast_path) ++slow_path;
    }
  }
  EXPECT_EQ(optimal, 50);
  EXPECT_EQ(slow_path, 50);
  EXPECT_EQ(CountScope::count(), 0u);
}

}  // namespace
}  // namespace eucon::qp
