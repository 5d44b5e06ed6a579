// Constrained linear least squares, MATLAB-lsqlin style:
//
//   min_x ||C x - d||_2^2   subject to   A x <= b,  lb <= x <= ub.
//
// The paper's controller calls MATLAB's lsqlin every sampling period; this
// is the from-scratch replacement, built on the active-set QP (the MPC now
// calls that QP directly with its explicit gains).
#pragma once

#include <limits>

#include "common/annotations.h"
#include "linalg/qr.h"
#include "qp/active_set.h"

namespace eucon::qp {

struct LsqlinProblem {
  linalg::Matrix c;
  linalg::Vector d;
  linalg::Matrix a;   // may have 0 rows
  linalg::Vector b;
  linalg::Vector lb;  // empty = unbounded below
  linalg::Vector ub;  // empty = unbounded above
};

struct LsqlinResult {
  linalg::Vector x;
  Status status = Status::kMaxIterations;
  int iterations = 0;
  double residual_norm = 0.0;  // ||C x - d||_2 at the solution
  // True when LsqlinSolver accepted the cached-QR unconstrained minimizer
  // without running the active-set QP (always false for one-shot lsqlin()).
  bool fast_path = false;
};

// Solves the problem. `x0`, when given, must satisfy all constraints and is
// used as the active-set starting point.
LsqlinResult lsqlin(const LsqlinProblem& prob,
                    const linalg::Vector* x0 = nullptr,
                    const Options& opts = {});

// Repeated-solve variant: min ||C x - d||_2^2 s.t. A x <= b, where C is
// fixed across many solves but d/A/b change every call. The constructor
// factorizes C once — Householder QR for the unconstrained fast path, plus
// the QP Hessian H = 2 C'C, whose Cholesky factor (of H + εI) is taken on
// the first QP solve and again only when a solve asks for a different ε
// (Options::regularization) — instead of lsqlin()'s per-call Gram product
// and factorization.
//
// Per solve:
//   1. If the cached-QR unconstrained minimizer satisfies A x <= b it is
//      returned directly (0 active-set iterations) — the common steady-state
//      case for the MPC once utilization has converged.
//   2. Otherwise the active-set QP runs on the cached factor; `warm`
//      (optional) carries the working set between consecutive solves.
class LsqlinSolver {
 public:
  explicit LsqlinSolver(linalg::Matrix c);

  // Re-factorizes for a new C (model / allocation / gain change).
  void reset(linalg::Matrix c);

  const linalg::Matrix& c() const { return c_; }

  // `x0`, when given, must satisfy A x <= b and seeds the active set.
  LsqlinResult solve(const linalg::Vector& d, const linalg::Matrix& a,
                     const linalg::Vector& b,
                     const linalg::Vector* x0 = nullptr,
                     const Options& opts = {}, WarmStart* warm = nullptr);

  // Allocation-free variant for per-period callers: writes into a
  // caller-owned result whose x is reused as scratch across solves. Both
  // the cached-QR fast path and the active-set QP path perform zero heap
  // allocations in steady state — the QP runs entirely inside `ws`, which
  // the caller owns and must have reserved for (c.cols(), a.rows()).
  void solve_into(const linalg::Vector& d, const linalg::Matrix& a,
                  const linalg::Vector& b, const linalg::Vector* x0,
                  const Options& opts, WarmStart* warm, QpWorkspace& ws,
                  LsqlinResult& out) EUCON_REALTIME;

 private:
  linalg::Matrix c_;
  linalg::Qr qr_;      // cached factorization of C
  linalg::Matrix h_;   // cached 2 C'C (the QP Hessian)
  linalg::Matrix l_;   // its factor, regularized by l_eps_ (NaN: stale)
  double l_eps_ = std::numeric_limits<double>::quiet_NaN();
  linalg::Vector f_;   // scratch: -2 C'd
  linalg::Vector resid_;  // scratch: C x - d
  linalg::Vector y_;      // scratch: Q^T d for the fast path
  const linalg::Vector no_bounds_;  // solve_into takes no box
  Result qp_scratch_;  // persistent QP result, x reused across solves
  QpWorkspace ws_;     // workspace for the solve() convenience overload
};

}  // namespace eucon::qp
