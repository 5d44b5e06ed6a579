#include "control/mpc.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "linalg/cholesky.h"
#include "linalg/qr.h"

namespace eucon::control {

using linalg::Matrix;
using linalg::Vector;

void MpcParams::validate(std::size_t n, std::size_t m) const {
  EUCON_REQUIRE(prediction_horizon >= 1, "prediction horizon must be >= 1");
  EUCON_REQUIRE(control_horizon >= 1 && control_horizon <= prediction_horizon,
                "control horizon must be in [1, P]");
  EUCON_REQUIRE(tref_over_ts > 0.0, "Tref/Ts must be positive");
  EUCON_REQUIRE(q.empty() || q.size() == n, "Q weight size mismatch");
  EUCON_REQUIRE(r.empty() || r.size() == m, "R weight size mismatch");
  for (std::size_t i = 0; i < q.size(); ++i)
    EUCON_REQUIRE(q[i] >= 0.0, "Q weights must be non-negative");
  for (std::size_t i = 0; i < r.size(); ++i)
    EUCON_REQUIRE(r[i] > 0.0, "R weights must be positive");
}

namespace {

Vector weights_or_ones(const Vector& w, std::size_t size) {
  return w.empty() ? Vector(size, 1.0) : w;
}

}  // namespace

MpcMatrices build_mpc_matrices(const PlantModel& model, const MpcParams& params) {
  model.validate();
  const std::size_t n = model.num_processors();
  const std::size_t m = model.num_tasks();
  params.validate(n, m);

  const int p = params.prediction_horizon;
  const int mh = params.control_horizon;
  const Vector q = weights_or_ones(params.q, n);
  const Vector r = weights_or_ones(params.r, m);

  const std::size_t rows = n * static_cast<std::size_t>(p) +
                           m * static_cast<std::size_t>(mh);
  const std::size_t cols = m * static_cast<std::size_t>(mh);

  MpcMatrices mats;
  mats.c = Matrix(rows, cols);
  mats.du = Matrix(rows, n);
  mats.dr = Matrix(rows, m);

  // Tracking blocks: sqrt(Q) (F S_i x - (ref_i - u(k))) for i = 1..P, with
  // ref_i - u(k) = (1 - e^{-i/(Tref/Ts)}) (B - u(k))   (eq. 8). S_i x =
  // r(k+i|k) - r(k-1) sums the first min(i, M) input blocks, so F S_i is F
  // repeated over those blocks.
  std::size_t row0 = 0;
  for (int i = 1; i <= p; ++i, row0 += n) {
    const auto sum_cols = m * static_cast<std::size_t>(std::min(i, mh));
    const double shape = 1.0 - std::exp(-static_cast<double>(i) / params.tref_over_ts);
    for (std::size_t rr = 0; rr < n; ++rr) {
      const double sq = std::sqrt(q[rr]);
      for (std::size_t cc = 0; cc < sum_cols; ++cc)
        mats.c(row0 + rr, cc) = sq * model.f(rr, cc % m);
      mats.du(row0 + rr, rr) = sq * shape;
    }
  }

  // Control-penalty blocks for i = 0..M-1. kDeltaRate penalizes
  // sqrt(R) Δr(k+i|k); kDeltaDeltaRate penalizes the successive difference
  // sqrt(R) (Δr(k+i|k) - Δr(k+i-1|k)), where for i = 0 the subtrahend is
  // the previously applied Δr(k-1), carried on the d side.
  for (int i = 0; i < mh; ++i, row0 += m) {
    for (std::size_t rr = 0; rr < m; ++rr) {
      const double sr = std::sqrt(r[rr]);
      mats.c(row0 + rr, static_cast<std::size_t>(i) * m + rr) = sr;
      if (params.penalty_form == PenaltyForm::kDeltaDeltaRate) {
        if (i > 0)
          mats.c(row0 + rr, static_cast<std::size_t>(i - 1) * m + rr) = -sr;
        else
          mats.dr(row0 + rr, rr) = sr;
      }
    }
  }
  EUCON_ASSERT(row0 == rows, "MPC matrix assembly row mismatch");
  return mats;
}

MpcGains build_mpc_gains(const PlantModel& model, const MpcParams& params) {
  const MpcMatrices mats = build_mpc_matrices(model, params);
  const Matrix d = params.penalty_form == PenaltyForm::kDeltaDeltaRate
                       ? linalg::hstack(mats.du, mats.dr)
                       : mats.du;
  const linalg::Qr qr(mats.c);
  // The control-penalty rows put sqrt(R) (R > 0, validated) on C's diagonal
  // below the tracking blocks, so C always has full column rank.
  EUCON_ASSERT(qr.full_rank(), "MPC least-squares matrix is rank deficient");
  MpcGains gains;
  gains.k = qr.solve_least_squares(d);
  gains.g = linalg::transpose_times(mats.c, d);
  gains.h = linalg::gram(mats.c);
  gains.h *= 2.0;
  return gains;
}

MpcController::MpcController(PlantModel model, MpcParams params,
                             Vector initial_rates,
                             qp::QpWorkspace* shared_workspace)
    : model_(std::move(model)),
      active_model_(model_),
      params_(std::move(params)),
      enabled_(model_.num_tasks(), true),
      tracked_(model_.num_processors(), true),
      tracked_count_(model_.num_processors()),
      gain_estimate_(model_.num_processors(), 1.0),
      rates_(std::move(initial_rates)),
      dr_prev_(model_.num_tasks(), 0.0),
      shared_ws_(shared_workspace) {
  EUCON_REQUIRE(rates_.size() == model_.num_tasks(),
                "initial rate vector size mismatch");
  rates_ = rates_.clamped(model_.rate_min, model_.rate_max);
  rebuild_active_model();
}

void MpcController::set_set_points(const Vector& b) {
  EUCON_REQUIRE(b.size() == model_.num_processors(), "set-point size mismatch");
  model_.b = b;
  model_.validate();
  active_model_.b = b;
}

void MpcController::rebuild_active_model() {
  // Untracked processors keep their du rows in build_mpc_matrices (sq·shape
  // entries), but their C tracking rows are all zero here, so the residual
  // on those rows is a constant — it shifts the cost, never the argmin (K
  // and G get zero columns for them). C keeps full column rank through the
  // control-penalty rows regardless.
  active_model_.f = model_.f;
  for (std::size_t i = 0; i < active_model_.f.rows(); ++i)
    for (std::size_t j = 0; j < active_model_.f.cols(); ++j)
      active_model_.f(i, j) = tracked_[i] && enabled_[j]
                                  ? gain_estimate_[i] * model_.f(i, j)
                                  : 0.0;
  MpcGains gains = build_mpc_gains(active_model_, params_);
  k_ = std::move(gains.k);
  g_ = std::move(gains.g);
  // The QP's Hessian in z: T⁻¹ maps z to x (x_i = z_i - z_{i-1}), so
  // (H + εI) T⁻¹ replaces column block i by block i minus block i+1, and
  // T⁻ᵀ does the same to row blocks. Ascending order reads each block i+1
  // before it changes.
  l_ = std::move(gains.h);
  const std::size_t m = active_model_.num_tasks();
  const std::size_t cols = l_.rows();
  for (std::size_t c = 0; c < cols; ++c)
    l_(c, c) += params_.solver.regularization;
  for (std::size_t r = 0; r < cols; ++r)
    for (std::size_t c = 0; c + m < cols; ++c) l_(r, c) -= l_(r, c + m);
  for (std::size_t r = 0; r + m < cols; ++r)
    for (std::size_t c = 0; c < cols; ++c) l_(r, c) -= l_(r + m, c);
  EUCON_ASSERT(linalg::Cholesky::factor_into(l_),
               "MPC Hessian is not positive definite");
  rebuild_constraint_templates();
}

void MpcController::rebuild_constraint_templates() {
  const std::size_t n = active_model_.num_processors();
  const std::size_t m = active_model_.num_tasks();
  const auto mh = static_cast<std::size_t>(params_.control_horizon);
  const std::size_t cols = m * mh;

  // Distinct utilization constraints exist only for i = 1..M: beyond the
  // control horizon the predicted utilization is constant. In z the
  // prediction u(k+i|k) = u(k) + F z_{i-1} reads one block, so row (i, p)
  // is F_p on block i-1. Untracked processors get no utilization rows at
  // all (row-skipping): a zeroed-F row with a stale u > B on the right-hand
  // side would make the instance unconditionally infeasible. Soft mode
  // never uses the rows, so it builds none.
  const std::size_t util_rows =
      params_.constraint_mode == ConstraintMode::kHardWithFallback
          ? tracked_count_ * mh
          : 0;
  a_util_ = Matrix(util_rows, cols);
  b_util_ = Vector(util_rows);
  v_ = Vector(k_.cols());
  f_ = Vector(cols);
  lb_ = Vector(cols);
  ub_ = Vector(cols);
  qp_res_.x = Vector(cols);
  x_zero_ = Vector(cols, 0.0);

  std::size_t row = 0;
  for (std::size_t i = 0; i < mh && util_rows > 0; ++i) {
    for (std::size_t p = 0; p < n; ++p) {
      if (!tracked_[p]) continue;
      const double* fp = active_model_.f.row_ptr(p);
      std::copy(fp, fp + m, a_util_.row_ptr(row) + i * m);
      ++row;
    }
  }
  EUCON_ASSERT(row == util_rows, "MPC constraint template row mismatch");

  // Size the QP workspace here, off the hot path: update() then solves
  // either layout without allocating.
  active_workspace().reserve(cols, util_rows);

  // A model change invalidates the carried working sets. Reserving each to
  // the largest working set (cols + 1 rows) here keeps the post-solve
  // working-set copy in update() heap-free even the first time a new
  // high-water count appears.
  warm_full_.working.clear();
  warm_full_.working.reserve(cols + 1);
  warm_rates_.working.clear();
  warm_rates_.working.reserve(cols + 1);
}

void MpcController::set_shared_workspace(qp::QpWorkspace* ws) {
  shared_ws_ = ws;
  // Growth-only: reserving for this controller's problem leaves any
  // capacity a bigger sibling already established untouched.
  active_workspace().reserve(l_.rows(), a_util_.rows());
}

void MpcController::set_enabled_tasks(const std::vector<bool>& enabled) {
  EUCON_REQUIRE(enabled.size() == model_.num_tasks(),
                "enabled-task mask size mismatch");
  EUCON_REQUIRE(std::find(enabled.begin(), enabled.end(), true) != enabled.end(),
                "at least one task must stay enabled");
  enabled_ = enabled;
  for (std::size_t j = 0; j < enabled_.size(); ++j)
    if (!enabled_[j]) dr_prev_[j] = 0.0;
  rebuild_active_model();
}

void MpcController::set_tracked_processors(const std::vector<bool>& tracked) {
  EUCON_REQUIRE(tracked.size() == model_.num_processors(),
                "tracked-processor mask size mismatch");
  EUCON_REQUIRE(std::find(tracked.begin(), tracked.end(), true) != tracked.end(),
                "at least one processor must stay tracked");
  if (tracked == tracked_) return;  // avoid invalidating warm starts
  tracked_ = tracked;
  tracked_count_ = static_cast<std::size_t>(
      std::count(tracked_.begin(), tracked_.end(), true));
  rebuild_active_model();
}

void MpcController::reset_rates(const linalg::Vector& rates) {
  EUCON_REQUIRE(rates.size() == model_.num_tasks(),
                "rate vector size mismatch");
  EUCON_CHECK_FINITE_VEC("MpcController::reset_rates input", rates);
  rates_ = rates.clamped(model_.rate_min, model_.rate_max);
  dr_prev_ = Vector(model_.num_tasks(), 0.0);
}

void MpcController::sync_rates(const linalg::Vector& rates) {
  EUCON_REQUIRE(rates.size() == model_.num_tasks(),
                "rate vector size mismatch");
  for (std::size_t j = 0; j < rates_.size(); ++j)
    rates_[j] =
        std::clamp(rates[j], model_.rate_min[j], model_.rate_max[j]);
}

void MpcController::set_allocation_matrix(const linalg::Matrix& f) {
  EUCON_REQUIRE(f.rows() == model_.num_processors() &&
                    f.cols() == model_.num_tasks(),
                "allocation matrix size mismatch");
  model_.f = f;
  model_.validate();
  rebuild_active_model();
}

void MpcController::set_gain_estimate(const linalg::Vector& gains) {
  EUCON_REQUIRE(gains.size() == model_.num_processors(),
                "gain estimate size mismatch");
  for (std::size_t i = 0; i < gains.size(); ++i)
    EUCON_REQUIRE(gains[i] > 0.0, "gain estimates must be positive");
  gain_estimate_ = gains;
  rebuild_active_model();
}

bool MpcController::unconstrained_feasible(const Vector& x,
                                           bool with_util_rows) const {
  const double tol = params_.solver.constraint_tol;
  if (!(tol >= 0.0)) return false;  // max_violation never reads below 0
  const std::size_t m = active_model_.num_tasks();
  const auto mh = static_cast<std::size_t>(params_.control_horizon);

  // A dense row's zero coefficient times a non-finite entry of x makes the
  // row NaN, which max_violation skips. Count those entries and where the
  // last one sits; a violation v > tol fails, a NaN v (also from a NaN
  // right-hand side) is skipped.
  std::size_t bad = 0, bad_end = 0;
  for (std::size_t c = 0; c < x.size(); ++c) {
    if (std::isfinite(x[c])) continue;
    ++bad;
    bad_end = c + 1;
  }

  if (with_util_rows) {
    // Row (i, p) is F_p on blocks 0..i-1 and zero after them; summing
    // block by block reproduces the dense row's dot to the bit.
    for (std::size_t p = 0; p < active_model_.num_processors(); ++p) {
      if (!tracked_[p]) continue;
      const double* fp = active_model_.f.row_ptr(p);
      double acc = 0.0;
      for (std::size_t blk = 0; blk < mh; ++blk) {
        const double* xb = x.data().data() + blk * m;
        for (std::size_t j = 0; j < m; ++j) acc += fp[j] * xb[j];
        if (bad_end > (blk + 1) * m) continue;  // NaN row
        if (acc - v_[p] > tol) return false;
      }
    }
  }
  // Rate-box block i bounds r(k+i|k) - r(k-1) = x_0 + … + x_i: an upper row
  // (+1 on task j of blocks 0..i) and a lower row (-1 on them), against this
  // period's box in ub_ / lb_.
  for (std::size_t j = 0; j < m; ++j) {
    double cum = 0.0;
    std::size_t bad_in_row = 0;
    for (std::size_t c = j; c < x.size(); c += m) {
      cum += x[c];
      if (!std::isfinite(x[c])) ++bad_in_row;
      if (bad_in_row < bad) continue;  // NaN row
      if (cum - ub_[c] > tol || lb_[c] - cum > tol) return false;
    }
  }
  return true;
}

std::vector<std::size_t> MpcController::last_working_set() const {
  // The solver numbers the z bounds all-upper then all-lower after the
  // utilization rows; the dense layout interleaves them per block.
  const qp::WarmStart& warm = last_used_util_rows_ ? warm_full_ : warm_rates_;
  const std::size_t util = last_used_util_rows_ ? a_util_.rows() : 0;
  const std::size_t m = active_model_.num_tasks();
  std::vector<std::size_t> rows(warm.working);
  for (std::size_t& k : rows) {
    if (k < util) continue;
    const std::size_t lower = (k - util) / l_.rows();
    const std::size_t c = (k - util) % l_.rows();
    k = util + (c / m) * 2 * m + lower * m + c % m;
  }
  return rows;
}

const Vector& MpcController::update(const Vector& u) {
  EUCON_REQUIRE(u.size() == active_model_.num_processors(),
                "utilization vector size mismatch");
  EUCON_CHECK_FINITE_VEC("MpcController::update input u", u);
  OBS_TIMED(metrics_, "mpc.update");
  ++update_count_;
  const std::size_t n = active_model_.num_processors();
  const std::size_t m = active_model_.num_tasks();

  const bool want_util_rows =
      params_.constraint_mode == ConstraintMode::kHardWithFallback;

  // Gain input v = [B - u(k); Δr(k-1)] (the tail exists only when K has
  // the Δr(k-1) columns).
  for (std::size_t i = 0; i < n; ++i) v_[i] = active_model_.b[i] - u[i];
  for (std::size_t j = n; j < v_.size(); ++j) v_[j] = dr_prev_[j - n];

  // The rate box in z: R_min - r(k-1) <= z_i <= R_max - r(k-1) for every
  // block i. Feasible starting points (F >= 0 elementwise, so pushing every
  // rate to R_min minimizes every predicted utilization):
  //   z = 0     feasible when u(k) <= B already;
  //   z = lb    feasible whenever the problem is feasible.
  const double tol = 1e-9;
  for (std::size_t c = 0; c < lb_.size(); ++c) {
    lb_[c] = active_model_.rate_min[c % m] - rates_[c % m];
    ub_[c] = active_model_.rate_max[c % m] - rates_[c % m];
  }

  bool util_rows = want_util_rows;
  const Vector* x0 = &x_zero_;
  if (util_rows) {
    bool zero_ok = true, drop_ok = true;
    for (std::size_t i = 0, row = 0; i < n; ++i) {
      if (!tracked_[i]) continue;  // no util rows for untracked processors
      // Right-hand side B - u of the utilization rows, in the block-major
      // layout of rebuild_constraint_templates.
      for (std::size_t r = row++; r < b_util_.size(); r += tracked_count_)
        b_util_[r] = v_[i];
      if (u[i] > active_model_.b[i] + tol) zero_ok = false;
      double u_drop = u[i];
      for (std::size_t j = 0; j < m; ++j) u_drop += active_model_.f(i, j) * lb_[j];
      if (u_drop > active_model_.b[i] + tol) drop_ok = false;
    }
    if (!zero_ok && drop_ok) {
      x0 = &lb_;
    } else if (!zero_ok) {
      // No rate vector can satisfy u <= B (paper §6.2: infeasible instance;
      // rate adaptation alone cannot reach the set points). Best effort:
      // drop the utilization rows and let the tracking term minimize the
      // overshoot.
      util_rows = false;
      ++fallback_count_;
    }
  }

  qp::WarmStart& warm = util_rows ? warm_full_ : warm_rates_;
  {
    OBS_TIMED(metrics_, "qp.solve");
    // Fast path: the unconstrained minimizer x* = K v. Feasible ⇒ optimal
    // (the constrained optimum can never beat the unconstrained one).
    linalg::multiply_into(k_, v_, qp_res_.x);
    last_fast_path_ = unconstrained_feasible(qp_res_.x, util_rows);
    if (last_fast_path_) {
      qp_res_.status = qp::Status::kOptimal;
      qp_res_.iterations = 0;
      // The working set at an interior optimum is empty; hand that to the
      // next solve rather than a stale set.
      warm.working.clear();
    } else {
      // Miss: the active-set QP on 0.5 z'H_z z + f_z'z, f_z = T⁻ᵀ(-2 G v),
      // with the rate box as bounds on z.
      linalg::multiply_into(g_, v_, f_);
      f_ *= -2.0;
      for (std::size_t c = 0; c + m < f_.size(); ++c) f_[c] -= f_[c + m];
      qp::solve_qp_into(l_, f_, util_rows ? a_util_ : no_rows_,
                        util_rows ? b_util_ : no_rhs_, lb_, ub_, x0,
                        params_.solver, &warm, active_workspace(), qp_res_);
    }
  }
  last_status_ = qp_res_.status;
  last_iterations_ = qp_res_.iterations;
  last_used_fallback_ = want_util_rows && !util_rows;
  last_used_util_rows_ = util_rows;
  qp_iterations_total_ += qp_res_.iterations < 0
                              ? 0u
                              : static_cast<std::uint64_t>(qp_res_.iterations);
  if (last_fast_path_) ++fast_path_hits_;

  // Receding horizon: apply only Δr(k|k), clamped into the rate box.
  // Suspended tasks stay frozen. All in place: update() is EUCON_REALTIME,
  // so no temporaries.
  for (std::size_t j = 0; j < m; ++j) {
    const double dr = enabled_[j] ? qp_res_.x[j] : 0.0;
    const double clamped = std::clamp(rates_[j] + dr, active_model_.rate_min[j],
                                      active_model_.rate_max[j]);
    dr_prev_[j] = clamped - rates_[j];
    rates_[j] = clamped;
  }
  EUCON_CHECK_FINITE_VEC("MpcController::update result rates", rates_);
  return rates_;
}

}  // namespace eucon::control
