#pragma once

// The FETI projector P = I − G (GᵀG)⁻¹ Gᵀ with G = B R (eq. (8)), the
// coarse-problem solves behind it, and the kernel coefficients α (eq. (9)).

#include <vector>

#include "decomp/feti_problem.hpp"
#include "la/dense.hpp"

namespace feti::gpu {
class Device;
class Stream;
}  // namespace feti::gpu

namespace feti::core {

class Projector {
 public:
  /// Builds G column-block by column-block (G_i = B̃ᵢ Rᵢ scattered through
  /// the subdomain→cluster multiplier maps), assembles and factorizes GᵀG,
  /// and computes e = Rᵀ f.
  explicit Projector(const decomp::FetiProblem& p);

  ~Projector();

  /// y = P x.
  void apply(const double* x, double* y) const;

  /// Device-resident apply for the device-state PCPG mode: xs[b] and ys[b]
  /// are device column pointers on `dev`. The G-panel products run as
  /// gpu::blas submissions against a lazily uploaded device copy of G (G is
  /// immutable after construction); only the kernel_total()-length coarse
  /// right-hand sides cross PCIe — the (GᵀG)⁻¹ coarse solve itself stays
  /// host-side, exactly like the host apply. All columns of one call cost
  /// two fused kernel submissions + one D2H/H2D scalar-block pair. Bit-identical
  /// to per-column apply() (same la:: calls on the same operands in the
  /// same per-column order).
  void apply_device(gpu::Device& dev, gpu::Stream& s,
                    const std::vector<const double*>& xs,
                    const std::vector<double*>& ys) const;

  /// λ₀ = G (GᵀG)⁻¹ e — the initial multiplier satisfying Gᵀλ = e. The
  /// vector e = Rᵀ f is recomputed from the problem's current load vectors,
  /// so multi-step simulations with changing values stay consistent.
  void initial_lambda(double* lambda0) const;

  /// α = −(GᵀG)⁻¹ Gᵀ r with r = d − Fλ (eq. (9)).
  [[nodiscard]] std::vector<double> alpha(const double* r) const;

  /// e = Rᵀ f from the problem's current load vectors.
  [[nodiscard]] std::vector<double> compute_e() const;
  [[nodiscard]] idx kernel_total() const { return g_.cols(); }

  /// ‖Gᵀ x‖∞ — test/diagnostic helper (should vanish for projected x).
  [[nodiscard]] double gt_norm(const double* x) const;

 private:
  /// t = (GᵀG)⁻¹ s via the Cholesky factor.
  void coarse_solve(std::vector<double>& s) const;
  /// Raw-pointer variant for the packed coarse blocks of apply_device.
  void coarse_solve(double* s) const;
  /// Uploads G (once) and sizes the coarse staging block for `cols`
  /// columns on `dev`. One device per projector instance.
  void ensure_device(gpu::Device& dev, gpu::Stream& s,
                     std::size_t cols) const;

  const decomp::FetiProblem& p_;
  la::DenseMatrix g_;        ///< num_lambdas x total_kernel, col-major
  la::DenseMatrix gtg_;      ///< Cholesky factor (lower) of GᵀG

  // Lazily created device mirror for apply_device (logically const: G never
  // changes after construction, so the mirror is a cache).
  mutable gpu::Device* dev_ = nullptr;
  mutable double* g_dev_ = nullptr;       ///< device copy of g_
  mutable double* s_dev_ = nullptr;       ///< coarse RHS block, rt × cols
  mutable std::size_t s_cap_ = 0;         ///< columns s_dev_ can hold
  mutable std::vector<double> s_host_;    ///< host staging for coarse solves
};

/// The lumped preconditioner M = Σᵢ B̃ᵢ Kᵢ B̃ᵢᵀ (applied with the original,
/// singular subdomain stiffness).
class LumpedPreconditioner {
 public:
  explicit LumpedPreconditioner(const decomp::FetiProblem& p) : p_(p) {}
  void apply(const double* x, double* y) const;

 private:
  const decomp::FetiProblem& p_;
};

}  // namespace feti::core
