// Parity of the explicit-gain MPC with the dense least-squares problem it
// encodes. Each period, a reference rebuilds the dense (C, d, A, b) of the
// controller's current state (active model, rate belief r(k-1), carried
// Δr(k-1)) and solves it with the one-shot qp::lsqlin; the rates update()
// returns must match it, and the fast-path flag must equal max_violation of
// the dense unconstrained minimizer on the dense constraint template.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "common/rng.h"
#include "control/mpc.h"
#include "linalg/qr.h"
#include "qp/lsqlin.h"

namespace eucon::control {
namespace {

using linalg::Matrix;
using linalg::Vector;

// A random model shaped like the paper's: execution-time entries in F
// (tens of ms, some zero), rates in 1/ms, set points in (0.5, 0.9).
PlantModel random_model(Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 4));
  const auto m = static_cast<std::size_t>(rng.uniform_int(2, 6));
  PlantModel model;
  model.f = Matrix(n, m);
  for (std::size_t j = 0; j < m; ++j) {
    // Every task runs somewhere; other entries are zero half the time.
    model.f(static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)), j) =
        rng.uniform(10.0, 60.0);
    for (std::size_t i = 0; i < n; ++i)
      if (rng.next_double() < 0.5) model.f(i, j) = rng.uniform(10.0, 60.0);
  }
  model.b = Vector(n);
  for (std::size_t i = 0; i < n; ++i) model.b[i] = rng.uniform(0.5, 0.9);
  model.rate_min = Vector(m);
  model.rate_max = Vector(m);
  for (std::size_t j = 0; j < m; ++j) {
    model.rate_min[j] = rng.uniform(0.001, 0.004);
    model.rate_max[j] = rng.uniform(0.01, 0.04);
  }
  return model;
}

Vector random_weights(Rng& rng, std::size_t size) {
  if (rng.next_double() < 0.5) return {};  // default: all ones
  Vector w(size);
  for (std::size_t i = 0; i < size; ++i) w[i] = rng.uniform(0.5, 2.0);
  return w;
}

std::vector<bool> one_off_mask(Rng& rng, std::size_t size) {
  std::vector<bool> mask(size, true);
  mask[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(size) - 1))] = false;
  return mask;
}

struct Reference {
  Vector rates;
  bool fast_path = false;
  bool fallback = false;
};

// The controller's problem for measurement u, written out densely.
Reference dense_reference(const MpcController& ctrl, const Vector& u) {
  const PlantModel& model = ctrl.model();
  const MpcParams& params = ctrl.params();
  const std::size_t n = model.num_processors();
  const std::size_t m = model.num_tasks();
  const auto mh = static_cast<std::size_t>(params.control_horizon);
  const Vector r = ctrl.current_rates();

  PlantModel active = model;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j)
      active.f(i, j) = ctrl.tracked_processors()[i] && ctrl.enabled_tasks()[j]
                           ? ctrl.gain_estimate()[i] * model.f(i, j)
                           : 0.0;
  const MpcMatrices mats = build_mpc_matrices(active, params);
  const Vector d =
      mats.du * (model.b - u) + mats.dr * ctrl.last_applied_delta();

  // Rows: u + F S_i x <= B per tracked processor (i = 1..M), then the rate
  // box S_i x <= R_max - r, -S_i x <= r - R_min.
  std::size_t tracked = 0;
  for (bool t : ctrl.tracked_processors()) tracked += t ? 1 : 0;
  Matrix util(tracked * mh, m * mh);
  Vector util_b(tracked * mh);
  Matrix box(2 * m * mh, m * mh);
  Vector box_b(2 * m * mh);
  for (std::size_t i = 1, row = 0; i <= mh; ++i) {
    for (std::size_t p = 0; p < n; ++p) {
      if (!ctrl.tracked_processors()[p]) continue;
      for (std::size_t blk = 0; blk < i; ++blk)
        for (std::size_t j = 0; j < m; ++j) util(row, blk * m + j) = active.f(p, j);
      util_b[row++] = model.b[p] - u[p];
    }
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t up = (i - 1) * 2 * m + j;
      for (std::size_t blk = 0; blk < i; ++blk) {
        box(up, blk * m + j) = 1.0;
        box(up + m, blk * m + j) = -1.0;
      }
      box_b[up] = model.rate_max[j] - r[j];
      box_b[up + m] = r[j] - model.rate_min[j];
    }
  }
  const Matrix full = linalg::vstack(util, box);
  Vector full_b(util_b.size() + box_b.size());
  for (std::size_t k = 0; k < util_b.size(); ++k) full_b[k] = util_b[k];
  for (std::size_t k = 0; k < box_b.size(); ++k) full_b[util_b.size() + k] = box_b[k];

  // Starting points: x = 0, else "every rate to R_min" (feasible whenever
  // anything is, since F >= 0); neither feasible drops the utilization rows.
  const double tol = params.solver.constraint_tol;
  const Vector x_zero(m * mh, 0.0);
  Vector x_drop(m * mh, 0.0);
  for (std::size_t j = 0; j < m; ++j) x_drop[j] = model.rate_min[j] - r[j];
  Reference ref;
  bool use_util = params.constraint_mode == ConstraintMode::kHardWithFallback;
  const Vector* x0 = &x_zero;
  if (use_util && qp::max_violation(full, full_b, x_zero) > tol) {
    if (qp::max_violation(full, full_b, x_drop) <= tol) {
      x0 = &x_drop;
    } else {
      use_util = false;
      ref.fallback = true;
    }
  }
  const Matrix& a = use_util ? full : box;
  const Vector& b = use_util ? full_b : box_b;

  const Vector x_unc = linalg::least_squares(mats.c, d);
  ref.fast_path = qp::max_violation(a, b, x_unc) <= tol;
  const qp::LsqlinResult sol =
      qp::lsqlin(qp::LsqlinProblem{mats.c, d, a, b, {}, {}}, x0, params.solver);
  ref.rates = Vector(m);
  for (std::size_t j = 0; j < m; ++j)
    ref.rates[j] = std::clamp(r[j] + (ctrl.enabled_tasks()[j] ? sol.x[j] : 0.0),
                              model.rate_min[j], model.rate_max[j]);
  return ref;
}

using ParityCase = std::tuple<int, PenaltyForm, ConstraintMode>;

class ExplicitGainParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(ExplicitGainParity, UpdateMatchesDenseLsqlinReference) {
  const auto [mh, form, mode] = GetParam();
  int hits = 0, misses = 0, fallbacks = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(1000 * seed + static_cast<std::uint64_t>(mh));
    const PlantModel model = random_model(rng);
    const std::size_t n = model.num_processors();
    const std::size_t m = model.num_tasks();
    MpcParams params;
    params.control_horizon = mh;
    params.prediction_horizon = mh + static_cast<int>(rng.uniform_int(0, 2));
    params.tref_over_ts = rng.uniform(2.0, 6.0);
    params.q = random_weights(rng, n);
    params.r = random_weights(rng, m);
    params.penalty_form = form;
    params.constraint_mode = mode;
    Vector r0(m);
    for (std::size_t j = 0; j < m; ++j)
      r0[j] = rng.uniform(model.rate_min[j], model.rate_max[j]);
    MpcController ctrl(model, params, r0);

    for (int k = 0; k < 60; ++k) {
      if (k == 12) ctrl.set_enabled_tasks(one_off_mask(rng, m));
      if (k == 22) ctrl.set_tracked_processors(one_off_mask(rng, n));
      if (k == 32) {
        Vector gains(n);
        for (std::size_t i = 0; i < n; ++i) gains[i] = rng.uniform(0.5, 2.0);
        ctrl.set_gain_estimate(gains);
      }
      if (k == 42) {
        Matrix f = model.f;
        for (std::size_t j = 0; j < m; ++j) f(0, j) += rng.uniform(0.0, 20.0);
        ctrl.set_allocation_matrix(f);
        ctrl.set_enabled_tasks(std::vector<bool>(m, true));
        ctrl.set_tracked_processors(std::vector<bool>(n, true));
      }
      // Mostly near the set points (fast path), sometimes far below (rate
      // box active) or far above (utilization rows infeasible).
      const double spread = k % 5 == 3 ? 0.5 : (k % 7 == 4 ? 1.5 : 0.03);
      Vector u(n);
      for (std::size_t i = 0; i < n; ++i)
        u[i] = std::max(0.0, model.b[i] + spread * rng.uniform(-1.0, 1.0));

      const Reference ref = dense_reference(ctrl, u);
      const Vector rates = ctrl.update(u);
      for (std::size_t j = 0; j < m; ++j)
        ASSERT_NEAR(rates[j], ref.rates[j], 1e-9)
            << "seed " << seed << " period " << k << " task " << j;
      ASSERT_EQ(ctrl.last_fast_path(), ref.fast_path)
          << "seed " << seed << " period " << k;
      ASSERT_EQ(ctrl.last_used_fallback(), ref.fallback)
          << "seed " << seed << " period " << k;
      if (ctrl.last_fast_path()) {
        EXPECT_EQ(ctrl.last_iterations(), 0);
        EXPECT_TRUE(ctrl.last_working_set().empty());
        ++hits;
      } else {
        ++misses;
      }
      fallbacks += ref.fallback ? 1 : 0;
    }
  }
  // The sweep exercised both branches (and the fallback where it exists).
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
  if (mode == ConstraintMode::kHardWithFallback) {
    EXPECT_GT(fallbacks, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    HorizonsFormsModes, ExplicitGainParity,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::Values(PenaltyForm::kDeltaRate,
                                         PenaltyForm::kDeltaDeltaRate),
                       ::testing::Values(ConstraintMode::kHardWithFallback,
                                         ConstraintMode::kSoftOnly)));

// K is C⁺ [du | dr] column by column, to the bit; G = C'[du | dr] and
// H = 2 C'C. The dr half exists only under kDeltaDeltaRate.
TEST(MpcGainsTest, MatchDenseMatricesColumnByColumn) {
  Rng rng(7);
  const PlantModel model = random_model(rng);
  const std::size_t n = model.num_processors();
  const std::size_t m = model.num_tasks();
  for (PenaltyForm form : {PenaltyForm::kDeltaRate, PenaltyForm::kDeltaDeltaRate}) {
    MpcParams params;
    params.prediction_horizon = 3;
    params.control_horizon = 2;
    params.penalty_form = form;
    const MpcMatrices mats = build_mpc_matrices(model, params);
    const MpcGains gains = build_mpc_gains(model, params);
    const Matrix d = form == PenaltyForm::kDeltaDeltaRate
                         ? linalg::hstack(mats.du, mats.dr)
                         : mats.du;
    ASSERT_EQ(gains.k.cols(), form == PenaltyForm::kDeltaDeltaRate ? n + m : n);
    const linalg::Qr qr(mats.c);
    for (std::size_t c = 0; c < d.cols(); ++c) {
      const Vector x = qr.solve_least_squares(d.col(c));
      for (std::size_t r = 0; r < x.size(); ++r) EXPECT_EQ(gains.k(r, c), x[r]);
    }
    EXPECT_TRUE(linalg::approx_equal(gains.g, mats.c.transposed() * d, 1e-12));
    EXPECT_TRUE(linalg::approx_equal(gains.h, 2.0 * (mats.c.transposed() * mats.c),
                                     1e-12));
  }
}

// A non-finite measurement makes x* non-finite. The fast-path rule must
// then agree with max_violation on the dense template (which skips NaN
// rows) exactly as before; keeping such a reading out is the control
// boundary's job, not the fast path's.
TEST(MpcExplicitGainTest, NonFiniteOptimumFollowsDenseMaxViolation) {
#ifdef EUCON_NUMERIC_CHECKS
  GTEST_SKIP() << "numeric checks reject a non-finite measurement up front";
#else
  for (PenaltyForm form : {PenaltyForm::kDeltaRate, PenaltyForm::kDeltaDeltaRate}) {
    for (ConstraintMode mode :
         {ConstraintMode::kHardWithFallback, ConstraintMode::kSoftOnly}) {
      Rng rng(11);
      const PlantModel model = random_model(rng);
      MpcParams params;
      params.penalty_form = form;
      params.constraint_mode = mode;
      for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
        // A fresh controller each time: a NaN reading poisons the rates.
        MpcController ctrl(model, params, model.rate_min);
        Vector u = model.b;
        u[0] = bad;
        const Reference ref = dense_reference(ctrl, u);
        ctrl.update(u);
        EXPECT_EQ(ctrl.last_fast_path(), ref.fast_path) << bad;
      }
    }
  }
#endif
}

// A NaN reading poisons the rate belief (keeping it out is the control
// boundary's job). The next overloaded period then misses the fast path on
// the utilization rows and runs the QP with a NaN rate box and a NaN
// starting point. That solve must come back — no assertion, no exception —
// whatever the rates read.
TEST(MpcExplicitGainTest, NanMeasurementOnMissPathReturns) {
#ifdef EUCON_NUMERIC_CHECKS
  GTEST_SKIP() << "numeric checks reject a non-finite measurement up front";
#else
  for (int mh : {1, 2}) {
    Rng rng(12);
    const PlantModel model = random_model(rng);
    MpcParams params;
    params.prediction_horizon = mh + 1;
    params.control_horizon = mh;
    MpcController ctrl(model, params, model.rate_min);
    Vector u = model.b;
    u[0] = std::numeric_limits<double>::quiet_NaN();
    ctrl.update(u);
    for (std::size_t i = 0; i < u.size(); ++i) u[i] = 1.5 * model.b[i];
    EXPECT_NO_THROW(ctrl.update(u)) << "M = " << mh;
    EXPECT_FALSE(ctrl.last_fast_path()) << "M = " << mh;
    EXPECT_FALSE(ctrl.last_used_fallback()) << "M = " << mh;
  }
#endif
}

}  // namespace
}  // namespace eucon::control
