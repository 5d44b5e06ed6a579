#include "qp/active_set.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "linalg/cholesky.h"
#include "linalg/lu.h"

namespace eucon::qp {

namespace {

using linalg::Cholesky;
using linalg::Lu;
using linalg::Matrix;
using linalg::Vector;

constexpr double kInf = std::numeric_limits<double>::infinity();

// The feasible set as rows: A's rows, then x_j <= ub_j as constraint m + j,
// then -x_j <= -lb_j as constraint m + n + j. An empty bound vector reads
// as ±infinity.
struct Constraints {
  const Matrix& a;
  const Vector& b;
  const Vector& lb;
  const Vector& ub;
  std::size_t n;
  std::size_t m;

  std::size_t count() const { return m + 2 * n; }
  double upper(std::size_t j) const { return ub.empty() ? kInf : ub[j]; }
  double lower(std::size_t j) const { return lb.empty() ? -kInf : lb[j]; }
  // a_k'v, O(1) for a bound.
  double dot(std::size_t k, const Vector& v) const {
    if (k < m) return linalg::row_dot(a, k, v);
    return k < m + n ? v[k - m] : -v[k - m - n];
  }
  double rhs(std::size_t k) const {
    if (k < m) return b[k];
    return k < m + n ? upper(k - m) : -lower(k - m - n);
  }
  // max(0, max_k a_k'x - b_k); NaN terms are skipped, as in max_violation.
  double violation(const Vector& x) const {
    double worst = 0.0;
    for (std::size_t k = 0; k < count(); ++k)
      worst = std::max(worst, dot(k, x) - rhs(k));
    return worst;
  }
};

double dot_from(const double* u, const double* v, std::size_t from,
                std::size_t n) {
  double s = 0.0;
  for (std::size_t t = from; t < n; ++t) s += u[t] * v[t];
  return s;
}

// Appends constraint k to the working set, with its row y = L⁻¹a_k' of Y.
// A bound's y is ±L⁻¹e_j, zero before j, so its substitution (and every
// dot with it) starts at j.
void push_working(const Matrix& l, const Constraints& c, std::size_t k,
                  QpWorkspace& ws, std::size_t& wcount) {
  double* y = ws.y.row_ptr(wcount);
  std::size_t start = 0;
  if (k < c.m) {
    std::copy(c.a.row_ptr(k), c.a.row_ptr(k) + c.n, y);
  } else {
    start = (k - c.m) % c.n;
    std::fill(y, y + c.n, 0.0);
    y[start] = k < c.m + c.n ? 1.0 : -1.0;
  }
  Cholesky::forward_in_place(l, y, start);
  ws.y_start[wcount] = start;
  ws.working[wcount++] = k;
  ws.in_working[k] = 1;
}

// Removes the member at position `pos`, keeping the others in order.
void erase_working(std::size_t n, std::size_t pos, QpWorkspace& ws,
                   std::size_t& wcount) {
  ws.in_working[ws.working[pos]] = 0;
  for (std::size_t k = pos + 1; k < wcount; ++k) {
    ws.working[k - 1] = ws.working[k];
    ws.y_start[k - 1] = ws.y_start[k];
    std::copy(ws.y.row_ptr(k), ws.y.row_ptr(k) + n, ws.y.row_ptr(k - 1));
  }
  --wcount;
}

// Solves the equality-constrained subproblem
//   min 0.5 (x+p)'H(x+p) + f'(x+p)   s.t.  a_k p = 0 for k in the working set
// in range-space form. On success the step is in ws.p and the multipliers
// in ws.lambda. Returns false when the working-set rows are linearly
// dependent (a singular Schur matrix Y Y', or more rows than variables).
bool solve_eqp(const Matrix& l, const Constraints& c, const Vector& x,
               std::size_t wcount, QpWorkspace& ws) EUCON_REALTIME {
  const std::size_t n = c.n;
  if (wcount > n) return false;
  // q = L⁻¹(Hx + f) = L'x + L⁻¹f.
  ws.q.reshape(n);
  Cholesky::multiply_lt(l, x.data().data(), ws.q.data().data());
  ws.q += ws.lf;
  ws.schur.reshape(wcount, wcount);
  ws.rhs.reshape(wcount);
  for (std::size_t k = 0; k < wcount; ++k) {
    const double* yk = ws.y.row_ptr(k);
    for (std::size_t i = 0; i <= k; ++i) {
      ws.schur(k, i) = dot_from(yk, ws.y.row_ptr(i),
                                std::max(ws.y_start[i], ws.y_start[k]), n);
      ws.schur(i, k) = ws.schur(k, i);
    }
    ws.rhs[k] = -dot_from(yk, ws.q.data().data(), ws.y_start[k], n);
  }
  if (!Lu::factor_into(ws.schur, ws.piv)) return false;
  Lu::solve_into(ws.schur, ws.piv, ws.rhs, ws.lambda);

  // p = -L⁻ᵀ(q + Y'λ).
  ws.p.reshape(n);
  for (std::size_t j = 0; j < n; ++j) ws.p[j] = -ws.q[j];
  for (std::size_t k = 0; k < wcount; ++k) {
    const double* yk = ws.y.row_ptr(k);
    for (std::size_t t = ws.y_start[k]; t < n; ++t)
      ws.p[t] -= ws.lambda[k] * yk[t];
  }
  Cholesky::backward_in_place(l, ws.p.data().data());
  // n independent working rows leave no free direction, and a working bound
  // pins its variable: there the step is exactly zero, not the round-off the
  // range-space solve leaves.
  if (wcount == n) ws.p.fill(0.0);
  for (std::size_t k = 0; k < wcount; ++k)
    if (ws.working[k] >= c.m) ws.p[ws.y_start[k]] = 0.0;
  return true;
}

// 0.5 x'L L'x + f'x (`lx` is caller scratch).
double objective_value(const Matrix& l, const Vector& f, const Vector& x,
                       Vector& lx) {
  lx.reshape(x.size());
  Cholesky::multiply_lt(l, x.data().data(), lx.data().data());
  return 0.5 * lx.dot(lx) + f.dot(x);
}

void phase1_impl(const Constraints& c, const Options& opts, QpWorkspace& ws,
                 Result& out) EUCON_REALTIME;

// The solver core. Identical contract to solve_qp_into but without the
// workspace-capacity precondition check, so the phase-1 recursion can run
// the auxiliary problem (vars + cons variables) in the same workspace: its
// buffers are reserved for exactly that worst case, and the recursion
// cannot nest further because the auxiliary call always has a starting
// point.
void solve_qp_impl(const Matrix& l, const Vector& f, const Constraints& c,
                   const Vector* x0, const Options& opts, WarmStart* warm,
                   QpWorkspace& ws, Result& out) EUCON_REALTIME {
  const std::size_t n = c.n;
  EUCON_REQUIRE(l.rows() == n && l.cols() == n, "H factor size mismatch");
  EUCON_REQUIRE(c.a.rows() == c.b.size(), "A/b size mismatch");
  EUCON_REQUIRE(c.m == 0 || c.a.cols() == n, "A column count mismatch");
  EUCON_REQUIRE(c.lb.empty() || c.lb.size() == n, "lb size mismatch");
  EUCON_REQUIRE(c.ub.empty() || c.ub.size() == n, "ub size mismatch");
  EUCON_CHECK_FINITE_MAT("solve_qp input L", l);
  EUCON_CHECK_FINITE_VEC("solve_qp input f", f);
  EUCON_CHECK_FINITE_MAT("solve_qp input A", c.a);
  EUCON_CHECK_FINITE_VEC("solve_qp input b", c.b);

  out.status = Status::kMaxIterations;
  out.iterations = 0;
  out.objective = 0.0;

  // Starting point.
  if (x0 != nullptr) {
    EUCON_REQUIRE(x0->size() == n, "x0 size mismatch");
    EUCON_REQUIRE(c.violation(*x0) <= 1e2 * opts.constraint_tol + 1e-12,
                  "x0 is not feasible");
    out.x = *x0;
  } else {
    phase1_impl(c, opts, ws, out);
    if (out.status != Status::kOptimal) {
      out.status = Status::kInfeasible;
      return;
    }
    out.status = Status::kMaxIterations;
  }
  const int phase1_iters = out.iterations;
  ws.lf = f;
  Cholesky::forward_in_place(l, ws.lf.data().data());

  // Active-set iteration. A warm start seeds the working set with the
  // previous solve's active constraints — but only those actually active at
  // the starting point, since holding a slack constraint as an equality
  // would let the solver terminate at a point violating complementary
  // slackness. The working set lives in the fixed-capacity ws.working
  // buffer (live prefix of length wcount) with ws.in_working membership
  // flags replacing linear searches. Past n + 1 members a seed could only
  // be dropped again as dependent, so seeding stops there.
  std::size_t wcount = 0;
  std::fill(ws.in_working.begin(), ws.in_working.begin() + c.count(),
            static_cast<unsigned char>(0));
  if (warm != nullptr) {
    for (std::size_t i : warm->working) {
      if (wcount > n) break;
      if (i >= c.count() || ws.in_working[i]) continue;
      const double rhs = c.rhs(i);
      if (!std::isinf(rhs) &&  // an infinite bound is never active
          std::abs(c.dot(i, out.x) - rhs) <=
              1e2 * opts.constraint_tol * (1.0 + std::abs(rhs)))
        push_working(l, c, i, ws, wcount);
    }
  }

  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    out.iterations = phase1_iters + iter + 1;
    if (!solve_eqp(l, c, out.x, wcount, ws)) {
      // Dependent working set (can happen right after adding a blocking
      // constraint parallel to existing ones): drop the newest member. An
      // empty working set is never dependent.
      erase_working(n, wcount - 1, ws, wcount);
      continue;
    }

    if (ws.p.norm_inf() <= opts.step_tol * (1.0 + out.x.norm_inf())) {
      // Stationary on the working set: check multipliers.
      int most_negative = -1;
      double worst = -opts.multiplier_tol * (1.0 + ws.lambda.norm_inf());
      for (std::size_t k = 0; k < wcount; ++k) {
        if (ws.lambda[k] < worst) {
          worst = ws.lambda[k];
          most_negative = eucon::narrow<int>(k);
        }
      }
      if (most_negative < 0) {
        out.status = Status::kOptimal;
        out.objective = objective_value(l, f, out.x, ws.q);
        if (warm != nullptr)
          warm->working.assign(ws.working.begin(),
                               ws.working.begin() + wcount);
        EUCON_CHECK_FINITE_VEC("solve_qp result", out.x);
        return;
      }
      erase_working(n, static_cast<std::size_t>(most_negative), ws, wcount);
      continue;
    }

    // Line search toward x + p, blocked by inactive constraints (lowest
    // index on a tie). Working-set members are skipped before their dots
    // are computed (they satisfy a_i'p = 0 by construction, so they can
    // never block); a bound's dot is one entry of p.
    double alpha = 1.0;
    int blocking = -1;
    for (std::size_t k = 0; k < c.count(); ++k) {
      if (ws.in_working[k]) continue;
      const double a_p = c.dot(k, ws.p);
      if (a_p <= 1e-13) continue;  // moving away or parallel
      const double room = std::max(0.0, c.rhs(k) - c.dot(k, out.x));
      const double step = room / a_p;
      if (step < alpha) {
        alpha = step;
        blocking = eucon::narrow<int>(k);
      }
    }

    if (alpha > 0.0) linalg::add_scaled(out.x, alpha, ws.p);
    if (blocking >= 0)
      push_working(l, c, static_cast<std::size_t>(blocking), ws, wcount);
  }

  out.status = Status::kMaxIterations;
  out.objective = objective_value(l, f, out.x, ws.q);
  // Write the final working set back even on the iteration-limit exit: a
  // stale warm start would re-seed the next period from a set that no
  // longer matches the returned iterate.
  if (warm != nullptr)
    warm->working.assign(ws.working.begin(), ws.working.begin() + wcount);
  EUCON_CHECK_FINITE_VEC("solve_qp result", out.x);
}

// Phase-1: finds x with A x <= b, lb <= x <= ub by solving the auxiliary
// QP over z = [x; s]
//   min 0.5*eps*||x||^2 + 0.5*||s||^2
//   s.t. A x - s <= b,  lb <= x <= ub,  s >= 0.
// x = clamp(0, lb, ub), s = max(0, A x - b) is always feasible; at the
// optimum s is the (least-squares) constraint violation, which is 0 iff the
// set is nonempty. Built in the workspace's aux buffers and solved through
// the same scratch as the outer problem (which has not started iterating
// yet). Writes the point, status, and auxiliary iteration count into `out`.
void phase1_impl(const Constraints& c, const Options& opts, QpWorkspace& ws,
                 Result& out) {
  const std::size_t n = c.n;
  const std::size_t m = c.m;
  const std::size_t naux = n + m;
  out.objective = 0.0;
  out.iterations = 0;
  out.status = Status::kInfeasible;
  out.x.reshape(n);
  for (std::size_t j = 0; j < n; ++j) {
    if (c.lower(j) > c.upper(j)) return;
    out.x[j] = std::min(std::max(0.0, c.lower(j)), c.upper(j));
  }
  out.status = Status::kOptimal;
  if (m == 0) return;

  // The factor of the diagonal Hessian is its elementwise square root.
  const double eps = 1e-8;
  ws.aux_l.reshape(naux, naux);
  ws.aux_l.fill(0.0);
  ws.aux_f.reshape(naux);
  ws.aux_f.fill(0.0);
  ws.aux_lb.reshape(naux);
  ws.aux_ub.reshape(naux);
  ws.aux_z0.reshape(naux);
  for (std::size_t j = 0; j < naux; ++j) {
    const bool slack = j >= n;
    ws.aux_l(j, j) = std::sqrt((slack ? 1.0 : eps) + opts.regularization);
    ws.aux_lb[j] = slack ? 0.0 : c.lower(j);
    ws.aux_ub[j] = slack ? kInf : c.upper(j);
    ws.aux_z0[j] =
        slack ? std::max(0.0, linalg::row_dot(c.a, j - n, out.x) - c.b[j - n])
              : out.x[j];
  }
  ws.aux_a.reshape(m, naux);
  ws.aux_a.fill(0.0);
  for (std::size_t i = 0; i < m; ++i) {
    std::copy(c.a.row_ptr(i), c.a.row_ptr(i) + n, ws.aux_a.row_ptr(i));
    ws.aux_a(i, n + i) = -1.0;
  }

  Options aux_opts = opts;
  aux_opts.max_iterations = std::max(opts.max_iterations, 2000);
  solve_qp_impl(ws.aux_l, ws.aux_f,
                Constraints{ws.aux_a, c.b, ws.aux_lb, ws.aux_ub, naux, m},
                &ws.aux_z0, aux_opts, nullptr, ws, ws.aux_result);

  for (std::size_t j = 0; j < n; ++j) out.x[j] = ws.aux_result.x[j];
  out.iterations = ws.aux_result.iterations;
  // The auxiliary problem shrinks but never exactly zeroes tiny violations
  // (eps-regularized); accept anything within a loose multiple of the
  // feasibility tolerance.
  out.status = c.violation(out.x) <= 1e3 * opts.constraint_tol
                   ? Status::kOptimal
                   : Status::kInfeasible;
}

}  // namespace

void QpWorkspace::reserve(std::size_t vars, std::size_t cons) {
  if (vars <= max_vars_ && cons <= max_cons_) return;
  max_vars_ = std::max(max_vars_, vars);
  max_cons_ = std::max(max_cons_, cons);
  // Worst case across the outer problem and its phase-1 auxiliary problem
  // (vars + cons variables, each with bounds, and cons rows). A working set
  // holds at most nmax + 1 rows: past n rows it is dependent and shrinks.
  const std::size_t nmax = max_vars_ + max_cons_;
  const std::size_t wmax = nmax + 1;
  y = linalg::Matrix(wmax, nmax);
  y_start.assign(wmax, 0);
  schur = linalg::Matrix(wmax, wmax);
  lf = q = p = linalg::Vector(nmax);
  rhs = lambda = linalg::Vector(wmax);
  working.assign(wmax, 0);
  in_working.assign(max_cons_ + 2 * nmax, 0);
  piv.assign(wmax, 0);
  aux_l = linalg::Matrix(nmax, nmax);
  aux_a = linalg::Matrix(max_cons_, nmax);
  aux_f = aux_lb = aux_ub = aux_z0 = aux_result.x = linalg::Vector(nmax);
}

bool factor_hessian(const Matrix& h, double regularization, Matrix& l) {
  EUCON_REQUIRE(h.rows() == h.cols(), "H must be square");
  l = h;
  for (std::size_t i = 0; i < l.rows(); ++i) l(i, i) += regularization;
  return Cholesky::factor_into(l);
}

double max_violation(const Matrix& a, const Vector& b, const Vector& x) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    worst = std::max(worst, linalg::row_dot(a, i, x) - b[i]);
  return worst;
}

void solve_qp_into(const Matrix& l, const Vector& f, const Matrix& a,
                   const Vector& b, const Vector& lb, const Vector& ub,
                   const Vector* x0, const Options& opts, WarmStart* warm,
                   QpWorkspace& ws, Result& out) {
  EUCON_REQUIRE(f.size() <= ws.max_vars() && a.rows() <= ws.max_cons(),
                "QpWorkspace too small; reserve(vars, cons) first");
  solve_qp_impl(l, f, Constraints{a, b, lb, ub, f.size(), a.rows()}, x0,
                opts, warm, ws, out);
}

Result solve_qp(const Matrix& h, const Vector& f, const Matrix& a,
                const Vector& b, const Vector& lb, const Vector& ub,
                const Vector* x0, const Options& opts, WarmStart* warm) {
  Matrix l;
  EUCON_REQUIRE(factor_hessian(h, opts.regularization, l),
                "H + regularization is not positive definite");
  QpWorkspace ws;
  ws.reserve(f.size(), a.rows());
  Result out;
  solve_qp_into(l, f, a, b, lb, ub, x0, opts, warm, ws, out);
  return out;
}

Result solve_qp(const Matrix& h, const Vector& f, const Matrix& a,
                const Vector& b, const Vector* x0, const Options& opts,
                WarmStart* warm) {
  return solve_qp(h, f, a, b, Vector(), Vector(), x0, opts, warm);
}

Result find_feasible_point(const Matrix& a, const Vector& b,
                           const Options& opts) {
  QpWorkspace ws;
  ws.reserve(a.cols(), a.rows());
  const Vector unbounded;
  Result out;
  phase1_impl(Constraints{a, b, unbounded, unbounded, a.cols(), a.rows()},
              opts, ws, out);
  return out;
}

}  // namespace eucon::qp
