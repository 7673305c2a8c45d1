#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "harness.hpp"

namespace perfbench {

using feti::idx;

std::string CheckResult::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.3e<=%.1e", value, bound);
  return buf;
}

std::string CheckBounds::describe() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "residual=%.3e dirichlet=%.3e agreement=%.3e",
                residual, dirichlet, agreement);
  return buf;
}

bool all_finite(const std::vector<double>& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

GlobalSystemCheck::GlobalSystemCheck(const feti::decomp::FetiProblem& p)
    : is_dirichlet_(static_cast<std::size_t>(p.global_dofs), 0) {
  for (const auto& s : p.sub)
    for (idx l : s.sys.dirichlet_dofs)
      is_dirichlet_[static_cast<std::size_t>(s.dof_l2g[l])] = 1;
}

CheckResult GlobalSystemCheck::residual(const feti::decomp::FetiProblem& p,
                                        const std::vector<double>& u,
                                        double bound) const {
  CheckResult res;
  res.bound = bound;
  if (u.size() != static_cast<std::size_t>(p.global_dofs) || !all_finite(u)) {
    res.value = INFINITY;
    return res;
  }
  // r = K u − f and f assembled subdomain by subdomain: the global matrix
  // is the sum of the subdomain stiffnesses scattered through dof_l2g.
  std::vector<double> r(u.size(), 0.0), f(u.size(), 0.0);
  for (const auto& s : p.sub) {
    const feti::la::Csr& k = s.sys.k;
    for (idx row = 0; row < k.nrows(); ++row) {
      double acc = 0.0;
      for (idx e = k.row_begin(row); e < k.row_end(row); ++e)
        acc += k.val(e) * u[static_cast<std::size_t>(s.dof_l2g[k.col(e)])];
      const auto g = static_cast<std::size_t>(s.dof_l2g[row]);
      r[g] += acc - s.sys.f[static_cast<std::size_t>(row)];
      f[g] += s.sys.f[static_cast<std::size_t>(row)];
    }
  }
  double rr = 0.0, ff = 0.0;
  for (std::size_t g = 0; g < u.size(); ++g) {
    if (is_dirichlet_[g]) continue;
    rr += r[g] * r[g];
    ff += f[g] * f[g];
  }
  res.value = std::sqrt(rr) / std::max(std::sqrt(ff), 1e-300);
  res.ok = res.value <= bound;
  return res;
}

CheckResult GlobalSystemCheck::dirichlet(const std::vector<double>& u,
                                         double bound) const {
  CheckResult res;
  res.bound = bound;
  double umax = 0.0, dmax = 0.0;
  for (std::size_t g = 0; g < u.size(); ++g) {
    if (!std::isfinite(u[g])) {
      res.value = INFINITY;
      return res;
    }
    umax = std::max(umax, std::fabs(u[g]));
    if (is_dirichlet_[g]) dmax = std::max(dmax, std::fabs(u[g]));
  }
  res.value = dmax / std::max(umax, 1e-300);
  res.ok = umax > 0.0 && res.value <= bound;
  return res;
}

bool GlobalSystemCheck::solution_ok(const feti::decomp::FetiProblem& p,
                                    const std::vector<double>& u,
                                    const CheckBounds& bounds,
                                    std::string* detail,
                                    CheckBounds* worst) const {
  const CheckResult r = residual(p, u, bounds.residual);
  const CheckResult d = dirichlet(u, bounds.dirichlet);
  if (worst != nullptr) {
    worst->residual = std::max(worst->residual, r.value);
    worst->dirichlet = std::max(worst->dirichlet, d.value);
  }
  if (detail != nullptr)
    *detail = "residual=" + r.describe() + " dirichlet=" + d.describe();
  return r.ok && d.ok;
}

CheckResult agreement(const std::vector<double>& u,
                      const std::vector<double>& ref, double bound) {
  CheckResult res;
  res.bound = bound;
  if (u.size() != ref.size() || !all_finite(u)) {
    res.value = INFINITY;
    return res;
  }
  double err = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    err = std::max(err, std::fabs(u[i] - ref[i]));
    scale = std::max(scale, std::fabs(ref[i]));
  }
  res.value = err / std::max(scale, 1e-300);
  res.ok = scale > 0.0 && res.value <= bound;
  return res;
}

bool self_test(const feti::decomp::FetiProblem& p,
               const GlobalSystemCheck& check, const std::vector<double>& u,
               const CheckBounds& bounds, const std::string& label) {
  double umax = 0.0;
  std::size_t free_dof = 0, dir_dof = 0;
  bool have_free = false, have_dir = false;
  for (std::size_t g = 0; g < u.size(); ++g) {
    umax = std::max(umax, std::fabs(u[g]));
    if (check.is_dirichlet()[g] && !have_dir) {
      dir_dof = g;
      have_dir = true;
    }
  }
  // A free DOF in the middle of the numbering: an interior node, away from
  // the Dirichlet face.
  for (std::size_t g = u.size() / 2; g < u.size() && !have_free; ++g)
    if (!check.is_dirichlet()[g]) {
      free_dof = g;
      have_free = true;
    }
  // A perturbation ten times the looser of the solution-scaled bounds:
  // small next to the solution, but outside what any check may accept.
  const double delta =
      1e1 * std::max(bounds.dirichlet, bounds.agreement) * umax;
  bool all = have_free && have_dir && umax > 0.0;

  std::vector<double> bad = u;
  bad[free_dof] += delta;
  const CheckResult r = check.residual(p, bad, bounds.residual);
  emit_check(label + ".selftest.residual", !r.ok, "perturbed " + r.describe());
  all = all && !r.ok;

  bad = u;
  bad[dir_dof] += delta;
  const CheckResult d = check.dirichlet(bad, bounds.dirichlet);
  emit_check(label + ".selftest.dirichlet", !d.ok, "perturbed " + d.describe());
  all = all && !d.ok;

  bad = u;
  bad[free_dof] += delta;
  const CheckResult a = agreement(bad, u, bounds.agreement);
  emit_check(label + ".selftest.agreement", !a.ok, "perturbed " + a.describe());
  all = all && !a.ok;
  return all;
}

}  // namespace perfbench
