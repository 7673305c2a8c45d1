#pragma once

// The preconditioned conjugate projected gradient method — Algorithm 1 of
// the paper: the dual operator F is applied once per iteration (line 7),
// the projector twice, the preconditioner once.
//
// One solver loop (core/pcpg.cpp) runs every solve. It is written once over
// a vector space that says where the loop state lives and how F, M⁻¹, the
// projector and the recycler projection consume it: the host space keeps it
// in host memory and runs the la:: arithmetic inline; the device space
// keeps it on the dual operator's device and submits the same arithmetic on
// its main stream (PcpgOptions::device_state). Inside the loop two step
// rules are chosen by options.block.enabled: lockstep (per-system pᵀq and
// wᵀy scalars) and block (one shared search panel with a PᵀFP Gram
// system). Setup and finalization run on the host for both spaces, and the
// scalars the loop decides on reach the host at explicit readback points
// only, so host and device runs agree bit for bit.
//
// solve_many() runs several independent dual systems in lockstep and
// funnels their per-iteration operator applications through the batched
// DualOperator::apply(X, Y, nrhs) entry point, so operators with a batch
// implementation (the explicit CPU ones: one SYMM per subdomain and
// iteration) serve a whole block of simultaneous right-hand sides at
// BLAS-3 rates; the others fall back to per-column applies. The
// preconditioner applications of a lockstep wave are batched the same way
// through Preconditioner::apply(X, Y, nrhs).
//
// The preconditioner is selected by registry key (see
// precond/precond_registry.hpp for the `<kind> <scaling>[ gpu]` grammar).
// Callers that manage the staged lifecycle themselves (FetiSolver, the
// service layer) pass a prepared precond::Preconditioner*; otherwise Pcpg
// creates and owns a CPU instance for the options key on construction.

#include <memory>
#include <string>
#include <vector>

#include "core/dual_operator.hpp"
#include "core/projector.hpp"

namespace feti::precond {
class Preconditioner;
}

namespace feti::core {

class KrylovRecycler;

/// Block-mode and recycling knobs of the PCPG loop. Both default off — the
/// per-system lockstep iteration is the historical behavior.
struct BlockPcpgOptions {
  /// True block-PCPG: the still-active systems of a solve_many call share
  /// one Krylov search panel. Each iteration applies F to the whole panel
  /// (the same batched apply(X, Y, nrhs) path lockstep uses) and solves the
  /// small PᵀFP Gram system with rank-revealing pivoted Cholesky, so a
  /// nearly dependent search direction deflates to a thinner panel instead
  /// of triggering the per-system `pq <= 0` breakdown. Clustered
  /// right-hand sides (the service layer's waves) converge in fewer
  /// iterations because every system steps through the union of the
  /// block's search directions. solve() routes through the same path with
  /// a width-1 panel — required for recycling single-RHS time steps.
  bool enabled = false;
  /// Cross-step Krylov recycling: harvest the search-direction panel of
  /// this solve into the caller-provided KrylovRecycler (set_recycler) and
  /// start from its deflated subspace solution — λ₀ gets the Galerkin
  /// correction from the recycled space and every new direction stays
  /// F-orthogonal to it. Ignored without a recycler; the recycler is only
  /// valid while F is unchanged (FetiSolver clears it when update_values()
  /// actually refreshes a subdomain).
  bool recycle = false;
  /// Retained deflation directions (the recycler's panel budget).
  int deflation_budget = 16;
  /// Gram pivot floor, relative to the largest initial Gram diagonal: a
  /// pivot below it deflates the column.
  double pivot_rel_tolerance = 1e-12;

  bool operator==(const BlockPcpgOptions&) const = default;
};

struct PcpgOptions {
  /// Device-resident solver-loop state. When the resolved dual operator
  /// exposes a device context (DualOperator::device_context() != nullptr)
  /// and the preconditioner is absent or does too, the PCPG loop keeps
  /// λ, r, w, y, the search panel P and Q = F·P in device memory for the
  /// whole solve: operator and preconditioner applications consume device
  /// views (no per-iteration H2D/D2H vector staging), the projector and
  /// deflation G/U-panel products run as device kernels, and only the
  /// small Gram blocks and convergence scalars cross PCIe per iteration.
  /// Bit-identical to the host-staged loop (the same loop and arithmetic),
  /// so iteration counts match exactly.
  ///   Auto — use the device path when eligible, fall back to the host
  ///          path otherwise (including on device out-of-memory);
  ///   Off  — always host-staged;
  ///   On   — require the device path; throws when the operator (or a
  ///          configured preconditioner) has no device context, and
  ///          propagates device out-of-memory instead of falling back.
  enum class DeviceState : std::uint8_t { Auto, Off, On };

  double rel_tolerance = 1e-9;
  int max_iterations = 1000;
  /// Preconditioner registry key ("none", "lumped", "dirichlet stiffness",
  /// ...); "" is treated as "none".
  std::string preconditioner = "none";
  /// Block-PCPG / Krylov-recycling configuration.
  BlockPcpgOptions block;
  /// Device-residency mode of the solver loop (see DeviceState).
  DeviceState device_state = DeviceState::Auto;
};

struct PcpgResult {
  std::vector<double> lambda;
  std::vector<double> alpha;   ///< kernel coefficients (eq. (9))
  int iterations = 0;
  double rel_residual = 0.0;
  bool converged = false;
  /// Width of the recycled deflation space applied at the start of this
  /// solve (0 = cold start / recycling off).
  int deflation_dim = 0;
};

class Pcpg {
 public:
  /// `m` optionally supplies a prepared, value-current preconditioner
  /// matching options.preconditioner (the solver and service layers pool
  /// and update theirs across steps). When null and the options key is not
  /// "none", the constructor creates, prepares, and updates a CPU instance
  /// from the PreconditionerRegistry — GPU keys require the caller-supplied
  /// route, since Pcpg holds no execution context.
  Pcpg(DualOperator& f, const Projector& projector, PcpgOptions options,
       precond::Preconditioner* m = nullptr);
  ~Pcpg();

  /// Solves F λ = d subject to Gᵀλ = e.
  PcpgResult solve(const std::vector<double>& d);

  /// Solves F λᵢ = dᵢ subject to Gᵀλᵢ = e for several right-hand sides at
  /// once. Each system iterates with its own step lengths and stops on its
  /// own criterion; the F applications of all still-active systems are
  /// batched per iteration. Results are returned in input order. A system
  /// that loses positive definiteness is reported as non-converged without
  /// disturbing the remaining systems — regardless of batch size; only
  /// solve() keeps the historical throwing contract.
  std::vector<PcpgResult> solve_many(const std::vector<std::vector<double>>& d);

  /// Borrowed-RHS variant of solve_many: the caller aliases right-hand
  /// sides instead of copying them (several systems may point at one
  /// shared vector — the service layer's waves mix per-tenant load cases
  /// with the shared physical d). Named distinctly so brace-initialized
  /// calls to solve_many stay unambiguous.
  std::vector<PcpgResult> solve_many_ptrs(
      const std::vector<const std::vector<double>*>& d);

  /// Attaches the cross-step recycler consumed (and refilled) by the block
  /// path when options.block.recycle is set. The caller owns the recycler
  /// and its invalidation: it must be cleared whenever the operator's
  /// values change (FetiSolver does both). Null detaches.
  void set_recycler(KrylovRecycler* recycler) { recycler_ = recycler; }

 private:
  /// Runs the solver loop in the device space or the host space per
  /// options.device_state (Auto additionally re-runs it on the host when
  /// the device runs out of memory). `throw_on_breakdown` preserves
  /// solve()'s historical throwing contract; solve_many() instead reports
  /// the broken system as non-converged.
  std::vector<PcpgResult> run(const std::vector<double>* const* d,
                              std::size_t nsys, bool throw_on_breakdown);

  /// True when the device space may run: the operator has a device context
  /// and the preconditioner (if any) does too. Throws under
  /// DeviceState::On when the requirement is unmet.
  [[nodiscard]] bool device_eligible();

  DualOperator& f_;
  const Projector& projector_;
  PcpgOptions options_;
  precond::Preconditioner* m_ = nullptr;  ///< null = no preconditioning
  std::unique_ptr<precond::Preconditioner> owned_m_;  ///< fallback instance
  KrylovRecycler* recycler_ = nullptr;    ///< caller-owned, may be null
};

}  // namespace feti::core
