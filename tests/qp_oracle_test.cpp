// Independent oracle for the active-set solver: for small problems,
// enumerate EVERY subset of constraints as a candidate active set, solve
// the corresponding equality-constrained problem in closed form, keep the
// feasible KKT points, and take the best. The solver must match.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "linalg/lu.h"
#include "qp/active_set.h"

namespace eucon::qp {
namespace {

using linalg::Lu;
using linalg::Matrix;
using linalg::Vector;

double objective(const Matrix& h, const Vector& f, const Vector& x) {
  return 0.5 * x.dot(h * x) + f.dot(x);
}

// Brute-force optimum by active-set enumeration. Returns nullopt when the
// problem is infeasible (no subset yields a feasible KKT point and no
// feasible point exists at all).
std::optional<Vector> brute_force(const Matrix& h, const Vector& f,
                                  const Matrix& a, const Vector& b) {
  const std::size_t n = f.size();
  const std::size_t m = a.rows();
  std::optional<Vector> best;
  double best_obj = 1e300;

  for (std::size_t mask = 0; mask < (std::size_t{1} << m); ++mask) {
    std::vector<std::size_t> active;
    for (std::size_t i = 0; i < m; ++i)
      if (mask & (std::size_t{1} << i)) active.push_back(i);
    if (active.size() > n) continue;

    // KKT system for the candidate active set.
    const std::size_t w = active.size();
    Matrix kkt(n + w, n + w);
    kkt.set_block(0, 0, h);
    Vector rhs(n + w);
    for (std::size_t j = 0; j < n; ++j) rhs[j] = -f[j];
    for (std::size_t k = 0; k < w; ++k) {
      for (std::size_t j = 0; j < n; ++j) {
        kkt(n + k, j) = a(active[k], j);
        kkt(j, n + k) = a(active[k], j);
      }
      rhs[n + k] = b[active[k]];
    }
    Lu lu(kkt);
    if (!lu.invertible()) continue;
    const Vector sol = lu.solve(rhs);
    Vector x(n);
    for (std::size_t j = 0; j < n; ++j) x[j] = sol[j];

    // Feasible w.r.t. all constraints?
    if (max_violation(a, b, x) > 1e-8) continue;
    // Multipliers of active constraints non-negative? (KKT optimality —
    // without it the point is just a feasible stationary candidate; we
    // still keep it since we take the global best over all subsets.)
    const double obj = objective(h, f, x);
    if (obj < best_obj - 1e-12) {
      best_obj = obj;
      best = x;
    }
  }
  return best;
}

class QpOracle : public ::testing::TestWithParam<int> {};

TEST_P(QpOracle, SolverMatchesExhaustiveEnumeration) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 913 + 19);
  const std::size_t n = 2 + static_cast<std::size_t>(seed % 2);  // 2..3 vars
  const std::size_t m = 3 + static_cast<std::size_t>(seed % 4);  // 3..6 rows

  // SPD H, random f, random constraints around a guaranteed-feasible box.
  Matrix base(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) base(r, c) = rng.uniform(-1.0, 1.0);
  Matrix h = linalg::gram(base);
  for (std::size_t i = 0; i < n; ++i) h(i, i) += 0.5;
  Vector f(n);
  for (std::size_t i = 0; i < n; ++i) f[i] = rng.uniform(-2.0, 2.0);

  Matrix a(m, n);
  Vector b(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    // Right-hand side keeps x = 0 feasible: b >= 0.
    b[i] = rng.uniform(0.05, 1.5);
  }

  const Result res = solve_qp(h, f, a, b);
  ASSERT_EQ(res.status, Status::kOptimal) << "seed " << seed;
  const auto oracle = brute_force(h, f, a, b);
  ASSERT_TRUE(oracle.has_value()) << "seed " << seed;

  // Objectives must agree tightly (minimizers may differ only when the
  // optimum is non-unique, which SPD H prevents).
  EXPECT_NEAR(objective(h, f, res.x), objective(h, f, *oracle), 1e-6)
      << "seed " << seed;
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_NEAR(res.x[j], (*oracle)[j], 1e-4) << "seed " << seed << " x" << j;
}

INSTANTIATE_TEST_SUITE_P(Seeds, QpOracle, ::testing::Range(1, 41));

// Box-bounded instances: each variable gets a finite or infinite lower and
// upper bound around a strictly feasible centre (so x = 0 may violate the
// box and phase 1 has to respect it), mixed with 0..3 general rows. The
// oracle sees every finite bound as one more row.
class QpOracleBounds : public ::testing::TestWithParam<int> {};

TEST_P(QpOracleBounds, BoundedSolverMatchesExhaustiveEnumeration) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 3);
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t n = 2 + static_cast<std::size_t>(seed % 2);  // 2..3 vars
  const std::size_t m = static_cast<std::size_t>(seed % 4);      // 0..3 rows

  Matrix base(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) base(r, c) = rng.uniform(-1.0, 1.0);
  Matrix h = linalg::gram(base);
  for (std::size_t i = 0; i < n; ++i) h(i, i) += 0.5;
  Vector f(n);
  for (std::size_t i = 0; i < n; ++i) f[i] = rng.uniform(-3.0, 3.0);

  Vector centre(n), lb(n), ub(n);
  for (std::size_t j = 0; j < n; ++j) {
    centre[j] = rng.uniform(-1.0, 1.0);
    lb[j] = rng.next_double() < 0.3 ? -inf : centre[j] - rng.uniform(0.1, 1.5);
    ub[j] = rng.next_double() < 0.3 ? inf : centre[j] + rng.uniform(0.1, 1.5);
  }
  Matrix a(m, n);
  Vector b(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    b[i] = linalg::row_dot(a, i, centre) + rng.uniform(0.05, 1.5);
  }

  // Dense form for the oracle: the rows, then x_j <= ub_j, then -x_j <= -lb_j.
  std::vector<std::size_t> finite_ub, finite_lb;
  for (std::size_t j = 0; j < n; ++j) {
    if (std::isfinite(ub[j])) finite_ub.push_back(j);
    if (std::isfinite(lb[j])) finite_lb.push_back(j);
  }
  Matrix dense_a(m + finite_ub.size() + finite_lb.size(), n);
  Vector dense_b(dense_a.rows());
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) dense_a(i, j) = a(i, j);
    dense_b[i] = b[i];
  }
  std::size_t row = m;
  for (std::size_t j : finite_ub) {
    dense_a(row, j) = 1.0;
    dense_b[row++] = ub[j];
  }
  for (std::size_t j : finite_lb) {
    dense_a(row, j) = -1.0;
    dense_b[row++] = -lb[j];
  }
  const auto oracle = brute_force(h, f, dense_a, dense_b);
  ASSERT_TRUE(oracle.has_value()) << "seed " << seed;

  const auto expect_oracle = [&](const Result& res, const char* what) {
    ASSERT_EQ(res.status, Status::kOptimal) << what << " seed " << seed;
    EXPECT_NEAR(objective(h, f, res.x), objective(h, f, *oracle), 1e-6)
        << what << " seed " << seed;
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(res.x[j], (*oracle)[j], 1e-4)
          << what << " seed " << seed << " x" << j;
      EXPECT_LE(res.x[j], ub[j] + 1e-9) << what << " seed " << seed;
      EXPECT_GE(res.x[j], lb[j] - 1e-9) << what << " seed " << seed;
    }
  };

  // Cold: phase 1 finds a start inside the box.
  expect_oracle(solve_qp(h, f, a, b, lb, ub), "cold");

  // Starting on a bound, with that bound seeded as working: the centre
  // moved onto each finite upper bound in turn, where the rows allow it.
  for (std::size_t j : finite_ub) {
    Vector x0 = centre;
    x0[j] = ub[j];
    if (max_violation(a, b, x0) > 0.0) continue;
    WarmStart warm;
    warm.working = {m + j};
    expect_oracle(solve_qp(h, f, a, b, lb, ub, &x0, {}, &warm), "on bound");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QpOracleBounds, ::testing::Range(1, 41));

}  // namespace
}  // namespace eucon::qp
