// Convex quadratic programming via the primal active-set method.
//
// Solves   min_x  0.5 x'Hx + f'x   subject to   A x <= b,  lb <= x <= ub
// with H symmetric positive semidefinite (a small diagonal regularization
// makes it definite). This is the same algorithm family (active set,
// Gill–Murray–Wright) that MATLAB's lsqlin used at the time of the paper;
// like lsqlin, it takes the variable bounds natively instead of as rows.
//
// The solver works on the lower Cholesky factor L of H + εI, which the
// caller factors once (factor_hessian) and reuses while H is fixed. Each
// iteration solves the working-set subproblem in range-space form: with
// Y = L⁻¹A_W', the multipliers solve the w×w system (Y'Y) λ = -Y'L⁻¹g and
// the step is p = -L⁻ᵀ(L⁻¹g + Y λ). Y's rows are kept as the working set
// changes, so an iteration costs a few triangular sweeps and a w×w LU
// (w <= n). A bound is a signed unit row: O(1) in the line search and the
// activity test, and L⁻¹e_j starts at row j.
//
// All per-iteration state lives in a caller-owned QpWorkspace sized by the
// maximum problem shape, so a steady-state solve performs zero heap
// allocations.
#pragma once

#include <cstddef>
#include <vector>

#include "common/annotations.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace eucon::qp {

struct Options {
  int max_iterations = 1000;
  double constraint_tol = 1e-9;   // feasibility tolerance on A x <= b
  // Dual tolerance for optimality, relative to the multiplier magnitudes.
  double multiplier_tol = 1e-8;
  // A step p with ||p||_inf <= step_tol * (1 + ||x||_inf) counts as zero
  // (the subproblem solves leave round-off noise in p at the optimum).
  double step_tol = 1e-8;
  // ε added to diag(H) before it is factored (factor_hessian, solve_qp and
  // the phase-1 problem apply it; solve_qp_into takes the factor as given).
  double regularization = 1e-9;
};

enum class Status {
  kOptimal,        // KKT-optimal point found
  kInfeasible,     // constraints have no solution (phase-1 failed)
  kMaxIterations,  // iteration limit; x is the best feasible iterate
};

struct Result {
  linalg::Vector x;
  Status status = Status::kMaxIterations;
  // Total active-set iterations, including any phase-1 feasibility solve.
  int iterations = 0;
  // 0.5 x'Hx + f'x at the returned x, with H = L L' (the regularized
  // Hessian the solver was given).
  double objective = 0.0;
};

// Carries the active working set from one solve to the next. A sequence of
// closely-related QPs (the MPC's receding-horizon instances) tends to keep
// the same constraints active; seeding the working set from the previous
// period's solution skips the iterations that would rediscover it.
//
// Constraint indices run over A's rows first, then the n upper bounds, then
// the n lower bounds: index i < m is row i, m + j is x_j <= ub_j and
// m + n + j is x_j >= lb_j. On entry, indices are kept only where the
// constraint is actually active at the starting point (anything else would
// break complementary slackness); on exit the final working set is written
// back — on every exit path, so a kMaxIterations result still leaves the
// warm start consistent with the returned iterate. An empty set is always a
// valid (cold) start.
struct WarmStart {
  std::vector<std::size_t> working;
};

// Persistent scratch for solve_qp_into. Every buffer is preallocated to the
// maximum shape reserve() has seen — including the phase-1 auxiliary problem
// over z = [x; s], which has vars + cons variables — so a solve within those
// bounds never touches the heap. reserve() is growth-only; call it at setup
// / model-rebuild time, off the realtime path.
//
// The underscore-free members are solver internals: owned by solve_qp_into,
// valid only during a solve, and not part of the public surface.
struct QpWorkspace {
  QpWorkspace() = default;

  // Sizes the workspace for problems with up to `vars` variables (each with
  // optional bounds) and `cons` general rows (phase-1 headroom included).
  // Growth-only.
  void reserve(std::size_t vars, std::size_t cons);

  std::size_t max_vars() const { return max_vars_; }
  std::size_t max_cons() const { return max_cons_; }

  std::size_t max_vars_ = 0;
  std::size_t max_cons_ = 0;

  // Main-loop scratch. Row k of `y` is L⁻¹a_k' for the k-th working
  // constraint (zero before y_start[k]); `schur` is Y Y' and its LU.
  linalg::Matrix y;
  std::vector<std::size_t> y_start;
  linalg::Matrix schur;
  linalg::Vector lf;      // L⁻¹f, once per solve
  linalg::Vector q;       // L⁻¹(H x + f) = L'x + L⁻¹f
  linalg::Vector p;       // step
  linalg::Vector rhs;     // Schur right-hand side
  linalg::Vector lambda;  // working-set multipliers
  std::vector<std::size_t> working;     // fixed-capacity index buffer; the
                                        // live prefix is the working set
  std::vector<unsigned char> in_working;  // per-constraint membership flags
  std::vector<std::size_t> piv;         // Schur LU row permutation

  // Phase-1 scratch: the auxiliary problem and its result.
  linalg::Matrix aux_l;
  linalg::Matrix aux_a;
  linalg::Vector aux_f;
  linalg::Vector aux_lb;
  linalg::Vector aux_ub;
  linalg::Vector aux_z0;
  Result aux_result;
};

// Writes the lower Cholesky factor of H + regularization·I into `l` (the
// factor solve_qp_into takes). Returns false when that matrix is not
// positive definite. Allocation-free once `l` has H's shape.
bool factor_hessian(const linalg::Matrix& h, double regularization,
                    linalg::Matrix& l) EUCON_REALTIME;

// Solves the QP into caller-owned storage. `l` is the lower Cholesky factor
// of the (regularized) Hessian. `lb` / `ub` are empty (no bounds) or hold
// one entry per variable, ±infinity allowed. If `x0` is non-null it must be
// feasible (within constraint_tol) and is used as the starting point;
// otherwise an internal phase-1 problem computes a feasible start (or
// proves infeasibility). A may have zero rows. `ws` must have been reserved
// for at least (f.size(), a.rows()); `out.x` is reused as scratch across
// calls, so repeated solves of same-shaped problems perform no heap
// allocation at all.
void solve_qp_into(const linalg::Matrix& l, const linalg::Vector& f,
                   const linalg::Matrix& a, const linalg::Vector& b,
                   const linalg::Vector& lb, const linalg::Vector& ub,
                   const linalg::Vector* x0, const Options& opts,
                   WarmStart* warm, QpWorkspace& ws, Result& out)
    EUCON_REALTIME;

// One-shot convenience wrappers: factor H + regularization·I and allocate a
// workspace per call. H + εI must be positive definite.
Result solve_qp(const linalg::Matrix& h, const linalg::Vector& f,
                const linalg::Matrix& a, const linalg::Vector& b,
                const linalg::Vector* x0 = nullptr, const Options& opts = {},
                WarmStart* warm = nullptr);
Result solve_qp(const linalg::Matrix& h, const linalg::Vector& f,
                const linalg::Matrix& a, const linalg::Vector& b,
                const linalg::Vector& lb, const linalg::Vector& ub,
                const linalg::Vector* x0 = nullptr, const Options& opts = {},
                WarmStart* warm = nullptr);

// Finds any x with A x <= b (phase-1). Status is kOptimal on success with
// the point in `x`, kInfeasible otherwise.
Result find_feasible_point(const linalg::Matrix& a, const linalg::Vector& b,
                           const Options& opts = {});

// Maximum violation max_i (a_i x - b_i), or 0 when A has no rows.
double max_violation(const linalg::Matrix& a, const linalg::Vector& b,
                     const linalg::Vector& x);

}  // namespace eucon::qp
