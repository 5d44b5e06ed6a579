#include "qp/lsqlin.h"

#include <limits>

#include "common/check.h"

namespace eucon::qp {

using linalg::Matrix;
using linalg::Vector;

LsqlinResult lsqlin(const LsqlinProblem& prob, const Vector* x0,
                    const Options& opts) {
  const std::size_t n = prob.c.cols();
  EUCON_REQUIRE(prob.c.rows() == prob.d.size(), "lsqlin: C/d size mismatch");
  EUCON_REQUIRE(prob.lb.empty() || prob.lb.size() == n, "lsqlin: lb size");
  EUCON_REQUIRE(prob.ub.empty() || prob.ub.size() == n, "lsqlin: ub size");
  EUCON_CHECK_FINITE_MAT("lsqlin input C", prob.c);
  EUCON_CHECK_FINITE_VEC("lsqlin input d", prob.d);

  // 0.5 x'Hx + f'x with H = 2 C'C, f = -2 C'd reproduces ||Cx-d||^2 up to
  // the constant d'd. The box goes to the solver as native bounds.
  Matrix h = linalg::gram(prob.c);
  h *= 2.0;
  Vector f = linalg::transpose_times(prob.c, prob.d);
  f *= -2.0;
  const Result qp_res =
      solve_qp(h, f, prob.a, prob.b, prob.lb, prob.ub, x0, opts);
  LsqlinResult out;
  out.x = qp_res.x;
  out.status = qp_res.status;
  out.iterations = qp_res.iterations;
  if (!out.x.empty()) {
    const Vector r = prob.c * out.x - prob.d;
    out.residual_norm = r.norm2();
  }
  EUCON_CHECK_FINITE_VEC("lsqlin result", out.x);
  return out;
}

LsqlinSolver::LsqlinSolver(linalg::Matrix c)
    : c_(std::move(c)), qr_(c_), h_(linalg::gram(c_)) {
  h_ *= 2.0;
}

void LsqlinSolver::reset(linalg::Matrix c) {
  c_ = std::move(c);
  qr_ = linalg::Qr(c_);
  linalg::gram_into(c_, h_);
  h_ *= 2.0;
  l_eps_ = std::numeric_limits<double>::quiet_NaN();  // refactor on next miss
}

LsqlinResult LsqlinSolver::solve(const Vector& d, const Matrix& a,
                                 const Vector& b, const Vector* x0,
                                 const Options& opts, WarmStart* warm) {
  ws_.reserve(c_.cols(), a.rows());  // growth-only; no-op across same shapes
  LsqlinResult out;
  solve_into(d, a, b, x0, opts, warm, ws_, out);
  return out;
}

void LsqlinSolver::solve_into(const Vector& d, const Matrix& a,
                              const Vector& b, const Vector* x0,
                              const Options& opts, WarmStart* warm,
                              QpWorkspace& ws, LsqlinResult& out) {
  EUCON_REQUIRE(d.size() == c_.rows(), "LsqlinSolver: C/d size mismatch");
  EUCON_REQUIRE(a.rows() == b.size(), "LsqlinSolver: A/b size mismatch");
  EUCON_REQUIRE(a.rows() == 0 || a.cols() == c_.cols(),
                "LsqlinSolver: A column mismatch");
  EUCON_CHECK_FINITE_VEC("LsqlinSolver input d", d);

  // Fast path: the unconstrained minimizer from the cached QR. Feasible ⇒
  // optimal (the constrained optimum can never beat the unconstrained one).
  // solve_least_squares_into reuses out.x and the y_ scratch, so the
  // steady-state period performs no heap allocation at all.
  if (qr_.full_rank()) {
    qr_.solve_least_squares_into(d, y_, out.x);
    if (max_violation(a, b, out.x) <= opts.constraint_tol) {
      out.status = Status::kOptimal;
      out.iterations = 0;
      out.fast_path = true;
      multiply_into(c_, out.x, resid_);
      resid_ -= d;
      out.residual_norm = resid_.norm2();
      // The working set at an interior optimum is empty; hand that to the
      // next solve rather than a stale set.
      if (warm != nullptr) warm->working.clear();
      return;
    }
  }

  if (opts.regularization != l_eps_) {
    EUCON_REQUIRE(factor_hessian(h_, opts.regularization, l_),
                  "LsqlinSolver: regularized 2 C'C is not positive definite");
    l_eps_ = opts.regularization;
  }
  linalg::transpose_times_into(c_, d, f_);
  f_ *= -2.0;
  solve_qp_into(l_, f_, a, b, no_bounds_, no_bounds_, x0, opts, warm, ws,
                qp_scratch_);
  out.x = qp_scratch_.x;
  out.status = qp_scratch_.status;
  out.iterations = qp_scratch_.iterations;
  out.fast_path = false;
  if (!out.x.empty()) {
    multiply_into(c_, out.x, resid_);
    resid_ -= d;
    out.residual_norm = resid_.norm2();
  } else {
    out.residual_norm = 0.0;  // don't carry a stale norm across reuses
  }
  EUCON_CHECK_FINITE_VEC("LsqlinSolver result", out.x);
}

}  // namespace eucon::qp
