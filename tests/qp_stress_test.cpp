// Degenerate-QP stress suite: the recovery branches of the active-set
// solver (dependent working sets, zero-step blocking constraints, warm
// starts that outlived their problem) and the iteration/warm-start
// accounting contracts of the workspace rewrite.
#include "qp/active_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

namespace eucon::qp {
namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(QpStressTest, DependentWorkingSetRowsRecoveredByDrop) {
  // min ||x - (2,2)||^2 s.t. x1 + x2 <= 2, stated twice. Seeding the warm
  // start with both duplicate rows (both active at x0) makes the very first
  // KKT system singular; the solver must drop the newest member and still
  // reach the optimum at (1,1).
  Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  Vector f{-4.0, -4.0};
  Matrix a{{1.0, 1.0}, {1.0, 1.0}};
  Vector b{2.0, 2.0};
  Vector x0{1.0, 1.0};
  WarmStart warm;
  warm.working = {0, 1};
  const Result r = solve_qp(h, f, a, b, &x0, {}, &warm);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 1.0, 1e-6);
  // The written-back working set no longer carries the dependent duplicate.
  EXPECT_EQ(warm.working.size(), 1u);
}

TEST(QpStressTest, GeneralRowParallelToBoundRecoveredByDrop) {
  // min ||x - (2,2)||^2 with x1 <= 1 stated once as a row of A and once as
  // the bound ub_1. Seeding both (both active at x0) makes the first Schur
  // matrix singular; the solver must drop the newest member (the bound,
  // index m + 0 = 1) and still reach the optimum at (1, 2).
  const double inf = std::numeric_limits<double>::infinity();
  Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  Vector f{-4.0, -4.0};
  Matrix a{{1.0, 0.0}};
  Vector b{1.0};
  Vector ub{1.0, inf};
  Vector x0{1.0, 0.0};
  WarmStart warm;
  warm.working = {0, 1};
  const Result r = solve_qp(h, f, a, b, Vector(), ub, &x0, {}, &warm);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 2.0, 1e-6);
  ASSERT_EQ(warm.working.size(), 1u);
  EXPECT_EQ(warm.working[0], 0u);
}

TEST(QpStressTest, ZeroStepBlockingConstraintActivatesWithoutMoving) {
  // Start exactly on the boundary of x1 <= 1 with the unconstrained
  // optimum beyond it: the first line search has zero room (alpha == 0),
  // so the iterate must stand still while the blocking constraint joins
  // the working set, then terminate there.
  Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  Vector f{-4.0, 0.0};  // min ||x - (2, 0)||^2
  Matrix a{{1.0, 0.0}};
  Vector b{1.0};
  Vector x0{1.0, 0.0};
  const Result r = solve_qp(h, f, a, b, &x0);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-8);
  EXPECT_NEAR(r.x[1], 0.0, 1e-8);
  // One iteration to activate the constraint at zero step, one to verify
  // optimality on it.
  EXPECT_GE(r.iterations, 2);
}

TEST(QpStressTest, ZeroStepCycleStillTerminates) {
  // Two constraints meet at the starting vertex (1,1); the unconstrained
  // optimum (3,3) is blocked by both with zero room. The solver activates
  // them one per iteration without moving and must not cycle.
  Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  Vector f{-6.0, -6.0};
  Matrix a{{1.0, 0.0}, {0.0, 1.0}};
  Vector b{1.0, 1.0};
  Vector x0{1.0, 1.0};
  const Result r = solve_qp(h, f, a, b, &x0);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-8);
  EXPECT_NEAR(r.x[1], 1.0, 1e-8);
  EXPECT_LE(r.iterations, 10);
}

TEST(QpStressTest, WarmStartSurvivesShrunkConstraintCount) {
  // Carry a working set whose indices outlive the problem: the second QP
  // has fewer rows, so stale indices >= m must be ignored (not crash, not
  // pin phantom constraints) and the write-back must contain only valid
  // indices.
  Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  Vector f{-6.0, -6.0};
  Matrix a6{{1.0, 0.0},
            {0.0, 1.0},
            {1.0, 1.0},
            {-1.0, 0.0},
            {0.0, -1.0},
            {1.0, -1.0}};
  Vector b6{1.0, 1.0, 2.0, 0.0, 0.0, 2.0};
  WarmStart warm;
  const Result r6 = solve_qp(h, f, a6, b6, nullptr, {}, &warm);
  ASSERT_EQ(r6.status, Status::kOptimal);
  ASSERT_FALSE(warm.working.empty());
  // Force stale indices into the carried set as well.
  warm.working.push_back(4);
  warm.working.push_back(5);

  Matrix a2{{1.0, 0.0}, {0.0, 1.0}};
  Vector b2{1.0, 1.0};
  const Result r2 = solve_qp(h, f, a2, b2, nullptr, {}, &warm);
  ASSERT_EQ(r2.status, Status::kOptimal);
  EXPECT_NEAR(r2.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r2.x[1], 1.0, 1e-6);
  for (const std::size_t i : warm.working) EXPECT_LT(i, 2u);
}

TEST(QpStressTest, WarmStartBoundIndicesSurviveShrunkRowCount) {
  // Bound indices are numbered after A's rows, so a working set carried
  // from a problem with more rows names different constraints — or none —
  // in the next one. The activity test must filter them, and the
  // write-back must hold only indices valid for the new problem.
  Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  Vector f{-6.0, -6.0};
  Vector lb{-1.0, -1.0};
  Vector ub{1.0, 1.0};
  Matrix a3{{1.0, 1.0}, {1.0, -1.0}, {-1.0, 1.0}};
  Vector b3{3.0, 2.0, 2.0};
  WarmStart warm;
  const Result r3 = solve_qp(h, f, a3, b3, lb, ub, nullptr, {}, &warm);
  ASSERT_EQ(r3.status, Status::kOptimal);
  // Both upper bounds bind at (1, 1): indices 3 + 0 and 3 + 1.
  ASSERT_EQ(warm.working.size(), 2u);
  EXPECT_GE(*std::min_element(warm.working.begin(), warm.working.end()), 3u);
  warm.working.push_back(99);  // stale in any problem here

  // One row: indices 3 and 4 are now the lower bounds, slack at x0 = 0.
  Matrix a1{{1.0, 1.0}};
  Vector b1{3.0};
  Vector x0{0.0, 0.0};
  const Result r1 = solve_qp(h, f, a1, b1, lb, ub, &x0, {}, &warm);
  ASSERT_EQ(r1.status, Status::kOptimal);
  EXPECT_NEAR(r1.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r1.x[1], 1.0, 1e-6);
  for (const std::size_t i : warm.working) EXPECT_LT(i, 1u + 2u * 2u);
  const Result fresh = solve_qp(h, f, a1, b1, lb, ub, &x0);
  EXPECT_EQ(r1.iterations, fresh.iterations);
}

TEST(QpStressTest, WarmStartWrittenBackOnIterationLimit) {
  // A one-iteration budget cannot finish this problem (two constraints to
  // activate), but the warm start must still leave with the working set
  // matching the returned iterate — not the stale pre-solve contents.
  Options tight;
  tight.max_iterations = 1;
  Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  Vector f{-6.0, -6.0};
  Matrix a{{1.0, 0.0}, {0.0, 1.0}};
  Vector b{1.0, 1.0};
  Vector x0{0.0, 0.0};
  WarmStart warm;
  const Result r1 = solve_qp(h, f, a, b, &x0, tight, &warm);
  ASSERT_EQ(r1.status, Status::kMaxIterations);
  EXPECT_LE(max_violation(a, b, r1.x), 1e-9);
  // The truncated solve activated a blocking constraint; the write-back
  // must carry it (the old code left the warm start untouched here).
  EXPECT_FALSE(warm.working.empty());

  // Continuation: resuming from the truncated iterate with the carried
  // working set finishes the solve.
  const Result r2 = solve_qp(h, f, a, b, &r1.x, {}, &warm);
  ASSERT_EQ(r2.status, Status::kOptimal);
  EXPECT_NEAR(r2.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r2.x[1], 1.0, 1e-6);
}

TEST(QpStressTest, ColdSolveCountsPhaseOneIterations) {
  // x = 0 violates the lower bounds, so a cold solve must run phase-1; its
  // iterations are part of the result. Replaying the same pipeline by hand
  // (find_feasible_point, then the seeded solve) must account for every
  // iteration exactly.
  Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  Vector f(2);
  Matrix a{{-1.0, 0.0}, {0.0, -1.0}, {1.0, 1.0}};
  Vector b{-0.5, -0.5, 4.0};
  const Result cold = solve_qp(h, f, a, b);
  ASSERT_EQ(cold.status, Status::kOptimal);

  const Result phase1 = find_feasible_point(a, b);
  ASSERT_EQ(phase1.status, Status::kOptimal);
  EXPECT_GT(phase1.iterations, 0);

  const Result seeded = solve_qp(h, f, a, b, &phase1.x);
  ASSERT_EQ(seeded.status, Status::kOptimal);
  EXPECT_EQ(cold.iterations, phase1.iterations + seeded.iterations);
  EXPECT_GT(cold.iterations, seeded.iterations);
}

TEST(QpStressTest, ColdStartWithBoundsRunsPhaseOne) {
  // x = 0 violates both the box and the row x1 + x2 >= 3, so a cold solve
  // runs phase 1 inside the box: min ||x||^2 s.t. x1 + x2 >= 3,
  // 0.5 <= x, x2 <= 1 has its optimum at (2, 1).
  Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  Vector f(2);
  Matrix a{{-1.0, -1.0}};
  Vector b{-3.0};
  Vector lb{0.5, 0.5};
  Vector ub{5.0, 1.0};
  const Result cold = solve_qp(h, f, a, b, lb, ub);
  ASSERT_EQ(cold.status, Status::kOptimal);
  EXPECT_NEAR(cold.x[0], 2.0, 1e-6);
  EXPECT_NEAR(cold.x[1], 1.0, 1e-6);
  EXPECT_GT(cold.iterations, 0);

  // A box no point of the row meets, and a crossed box, are infeasible.
  Vector ub_small{1.0, 1.0};
  EXPECT_EQ(solve_qp(h, f, a, b, lb, ub_small).status, Status::kInfeasible);
  Vector lb_crossed{0.5, 2.0};
  EXPECT_EQ(solve_qp(h, f, a, b, lb_crossed, ub).status, Status::kInfeasible);
}

TEST(QpStressTest, WorkspaceReusedAcrossShapes) {
  // One workspace, three different problem shapes within its reserve
  // bounds: results must match fresh one-shot solves.
  QpWorkspace ws;
  ws.reserve(4, 8);
  Result out;
  for (std::size_t n = 2; n <= 4; ++n) {
    Matrix h(n, n);
    Vector f(n);
    for (std::size_t i = 0; i < n; ++i) {
      h(i, i) = 2.0;
      f[i] = -2.0 * static_cast<double>(i + 1);
    }
    Matrix a(2 * n, n);
    Vector b(2 * n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      a(i, i) = 1.0;
      a(n + i, i) = -1.0;
    }
    Matrix l;
    ASSERT_TRUE(factor_hessian(h, Options{}.regularization, l));
    solve_qp_into(l, f, a, b, Vector(), Vector(), nullptr, {}, nullptr, ws,
                  out);
    const Result fresh = solve_qp(h, f, a, b);
    ASSERT_EQ(out.status, Status::kOptimal) << n;
    ASSERT_EQ(fresh.status, Status::kOptimal) << n;
    ASSERT_EQ(out.x.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(out.x[i], fresh.x[i], 1e-9) << n << "/" << i;
    EXPECT_EQ(out.iterations, fresh.iterations) << n;
  }
}

TEST(QpStressTest, WorkspaceTooSmallIsRefused) {
  QpWorkspace ws;
  ws.reserve(1, 1);
  Matrix h{{2.0, 0.0}, {0.0, 2.0}};
  Vector f{-1.0, -1.0};
  Matrix a{{1.0, 0.0}};
  Vector b{1.0};
  Matrix l;
  ASSERT_TRUE(factor_hessian(h, Options{}.regularization, l));
  const Vector none;
  Result out;
  EXPECT_THROW(
      solve_qp_into(l, f, a, b, none, none, nullptr, {}, nullptr, ws, out),
      std::invalid_argument);
}

}  // namespace
}  // namespace eucon::qp
