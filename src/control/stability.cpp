#include "control/stability.h"

#include "common/check.h"
#include "linalg/eig.h"

namespace eucon::control {

using linalg::Matrix;
using linalg::Vector;

StabilityAnalyzer::StabilityAnalyzer(PlantModel model, MpcParams params)
    : model_(std::move(model)), params_(std::move(params)) {
  const std::size_t n = model_.num_processors();
  const std::size_t m = model_.num_tasks();

  // Unconstrained optimum: x* = K [B-u; Δr_prev]; the applied input is its
  // first block, so K1 and K2 are K's first m rows. Under kDeltaRate K has
  // no Δr_prev columns: K2 = 0.
  const Matrix k = build_mpc_gains(model_, params_).k;
  k1_ = k.block(0, 0, m, n);
  k2_ = k.cols() > n ? k.block(0, n, m, m) : Matrix(m, m);
}

Matrix StabilityAnalyzer::closed_loop_matrix(const Vector& gains) const {
  const std::size_t n = model_.num_processors();
  const std::size_t m = model_.num_tasks();
  EUCON_REQUIRE(gains.size() == n, "gain vector size mismatch");

  const Matrix gf = Matrix::diagonal(gains) * model_.f;  // n×m
  const Matrix gfk1 = gf * k1_;                          // n×n
  const Matrix gfk2 = gf * k2_;                          // n×m

  Matrix a(n + m, n + m);
  a.set_block(0, 0, Matrix::identity(n) - gfk1);
  a.set_block(0, n, gfk2);
  a.set_block(n, 0, -1.0 * k1_);
  a.set_block(n, n, k2_);
  return a;
}

double StabilityAnalyzer::spectral_radius(const Vector& gains) const {
  return linalg::spectral_radius(closed_loop_matrix(gains));
}

double StabilityAnalyzer::spectral_radius_uniform(double gain) const {
  return spectral_radius(Vector(model_.num_processors(), gain));
}

bool StabilityAnalyzer::is_stable(const Vector& gains) const {
  return spectral_radius(gains) < 1.0;
}

bool StabilityAnalyzer::is_stable_uniform(double gain) const {
  return spectral_radius_uniform(gain) < 1.0;
}

double StabilityAnalyzer::critical_uniform_gain(double g_max, double coarse_step,
                                                double tol) const {
  EUCON_REQUIRE(g_max > 0.0 && coarse_step > 0.0 && tol > 0.0,
                "critical_uniform_gain parameters must be positive");
  double lo = 0.0;  // stable (the loop is trivially stable as g -> 0)
  double hi = g_max;
  bool found_unstable = false;
  for (double g = coarse_step; g <= g_max + 1e-12; g += coarse_step) {
    if (!is_stable_uniform(g)) {
      hi = g;
      found_unstable = true;
      break;
    }
    lo = g;
  }
  if (!found_unstable) return g_max;
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    if (is_stable_uniform(mid))
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace eucon::control
