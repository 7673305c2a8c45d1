#pragma once

// Correctness checks made apart from FETI. They read only the finite
// element data of the problem (each subdomain's current K and f and its
// local-to-global DOF map), never a dual operator, projector or PCPG state:
//
//  * residual: the global K and f are assembled from the subdomains'
//    current sys.k / sys.f through dof_l2g, and ‖K u − f‖₂ / ‖f‖₂ is taken
//    over the free (non-Dirichlet) DOFs;
//  * dirichlet: max |u| over the Dirichlet DOFs, relative to max |u|;
//  * agreement: max |u − u_ref| / max |u_ref| against a solution computed
//    another way (the monolithic direct solve, or an "impl mkl" solve of
//    the same dual system).
//
// self_test() shows that each check rejects a perturbed solution.

#include <string>
#include <vector>

#include "decomp/feti_problem.hpp"

namespace perfbench {

/// Bounds of the checks, derived from the PCPG relative tolerance `tol` of
/// the solve that produced u. An error of relative size tol in the dual
/// solution moves u by about tol times the conditioning of the subdomain
/// problems (below 1e3 on these grids), hence the agreement and Dirichlet
/// factor. The residual check also multiplies that error by K, whose norm
/// relative to ‖f‖ grows as 1/h², hence ten times more.
struct CheckBounds {
  double residual = 0.0;
  double dirichlet = 0.0;
  double agreement = 0.0;

  static CheckBounds for_tolerance(double tol) {
    return {1e4 * tol, 1e3 * tol, 1e3 * tol};
  }
  [[nodiscard]] std::string describe() const;
};

struct CheckResult {
  bool ok = false;
  double value = 0.0;
  double bound = 0.0;
  [[nodiscard]] std::string describe() const;
};

/// Assembled global view of a FETI problem's FEM data.
class GlobalSystemCheck {
 public:
  explicit GlobalSystemCheck(const feti::decomp::FetiProblem& p);

  /// ‖K u − f‖ / ‖f‖ on free DOFs with the problem's current values.
  [[nodiscard]] CheckResult residual(const feti::decomp::FetiProblem& p,
                                     const std::vector<double>& u,
                                     double bound) const;
  /// max |u| on Dirichlet DOFs relative to max |u|.
  [[nodiscard]] CheckResult dirichlet(const std::vector<double>& u,
                                      double bound) const;
  /// Both of the above; `worst` (optional) keeps the largest values seen.
  [[nodiscard]] bool solution_ok(const feti::decomp::FetiProblem& p,
                                 const std::vector<double>& u,
                                 const CheckBounds& bounds,
                                 std::string* detail = nullptr,
                                 CheckBounds* worst = nullptr) const;

  [[nodiscard]] const std::vector<int>& is_dirichlet() const {
    return is_dirichlet_;
  }

 private:
  std::vector<int> is_dirichlet_;  ///< per global DOF
};

/// max |u − ref| / max |ref|.
[[nodiscard]] CheckResult agreement(const std::vector<double>& u,
                                    const std::vector<double>& ref,
                                    double bound);

/// True when every entry is finite.
[[nodiscard]] bool all_finite(const std::vector<double>& v);

/// Perturbs a verified solution and confirms every check rejects it; emits
/// one CHECK line per check. Returns true when all rejections happened.
bool self_test(const feti::decomp::FetiProblem& p,
               const GlobalSystemCheck& check, const std::vector<double>& u,
               const CheckBounds& bounds, const std::string& label);

}  // namespace perfbench
