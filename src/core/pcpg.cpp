#include "core/pcpg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <new>
#include <utility>

#include "core/krylov_recycler.hpp"
#include "gpu/runtime.hpp"
#include "la/blas_dense.hpp"
#include "precond/precond_registry.hpp"

namespace feti::core {

namespace {

using Ptrs = std::vector<double*>;
using CPtrs = std::vector<const double*>;

/// Finalization floor for the initial projected-residual norm: below it the
/// right-hand side is numerically zero for this system and λ₀ already
/// solves it. Scaled to the problem (n·ε·‖d‖) with an absolute denormal
/// guard — a bit-exact-zero test alone lets a 1e-300-scaled RHS divide by
/// a denormal w₀ and spin to max_iterations on NaN step lengths.
double w0_floor(idx n, double d_norm) {
  constexpr double eps = std::numeric_limits<double>::epsilon();
  constexpr double denormal_guard = std::numeric_limits<double>::min() / eps;
  return static_cast<double>(n) * eps * d_norm + denormal_guard;
}

/// Rank-revealing Gram-system solver of the block step: factors the small
/// PᵀFP matrix once per iteration with pivoted Cholesky and solves for the
/// per-system step/conjugation coefficients. Panel columns beyond the
/// revealed rank are numerically dependent on the kept ones and get zero
/// coefficients — column deflation instead of the per-system `pq <= 0`
/// breakdown of the lockstep rule.
class GramSolver {
 public:
  /// `gram` is the width × width column-major block (leading dimension
  /// width).
  void factor(const double* gram, idx width, double rel_tolerance) {
    l_ = la::DenseMatrix(width, width, la::Layout::ColMajor);
    std::copy_n(gram, static_cast<std::size_t>(width) * width, l_.data());
    perm_.resize(static_cast<std::size_t>(width));
    rank_ = la::potrf_pivoted_lower(l_.view(), perm_.data(), rel_tolerance);
  }
  [[nodiscard]] idx rank() const { return rank_; }

  /// b (length = panel width) → x with Gram x = b on the kept columns and
  /// x = 0 on the deflated ones, in place.
  void solve(double* b) const {
    std::vector<double> t(static_cast<std::size_t>(rank_));
    for (idx k = 0; k < rank_; ++k) t[static_cast<std::size_t>(k)] = b[perm_[k]];
    const la::ConstDenseView lead(l_.data(), rank_, rank_, l_.ld(),
                                  la::Layout::ColMajor);
    la::trsv(la::Uplo::Lower, la::Trans::No, lead, t.data());
    la::trsv(la::Uplo::Lower, la::Trans::Yes, lead, t.data());
    std::fill_n(b, l_.rows(), 0.0);
    for (idx k = 0; k < rank_; ++k) b[perm_[k]] = t[static_cast<std::size_t>(k)];
  }

 private:
  la::DenseMatrix l_;
  std::vector<idx> perm_;
  idx rank_ = 0;
};

/// Column-major n × width view of a contiguous panel.
la::ConstDenseView panel_view(const double* a, idx n, idx width) {
  return {a, n, width, n, la::Layout::ColMajor};
}

/// Loop body: column b of the contiguous panel (leading dimension n) =
/// srcs[b].
auto pack(CPtrs srcs, double* panel, idx n) {
  return [srcs = std::move(srcs), panel, n] {
    for (std::size_t b = 0; b < srcs.size(); ++b)
      std::copy_n(srcs[b], n, panel + b * static_cast<std::size_t>(n));
  };
}

// ---------------------------------------------------------------------------
// Vector spaces
// ---------------------------------------------------------------------------
//
// The solver loop is written once over a vector space: where the loop state
// lives, where its arithmetic runs, and how the four applications (F, M⁻¹,
// the projector, the recycler projection) consume it. Every loop body is
// the same la:: arithmetic in both spaces; the host runs it inline, the
// device submits it on the operator's main stream. Scalars reach the host
// only through read(), the explicit readback points of the loop.

/// Loop state in host memory; la:: bodies run inline, readback is free.
class HostSpace {
 public:
  HostSpace(DualOperator& f, precond::Preconditioner* m,
            const Projector& projector)
      : f_(f), m_(m), projector_(projector) {}

  double* allocate(std::size_t count) {
    store_.assign(count, 0.0);
    return store_.data();
  }
  template <class Body>
  void exec(Body&& body) {
    body();
  }
  /// Copies the n-vectors srcs[b] into dsts[b].
  void upload(const Ptrs& dsts, const CPtrs& srcs, idx n) {
    for (std::size_t b = 0; b < dsts.size(); ++b)
      std::copy_n(srcs[b], n, dsts[b]);
  }
  /// Readback point: `count` values at `src` as host memory (they already
  /// are; edits land in place).
  double* read(double* src, std::size_t /*count*/) { return src; }
  /// Publishes host edits of the last read block back to its source.
  void commit(double* /*src*/, std::size_t /*count*/) {}

  // Width-1 applications keep the single-vector overloads, so the implicit
  // operators stay bitwise the same as a solo solve.
  void apply_f(const double* x, double* y, idx k) {
    if (k == 1)
      f_.apply(x, y);
    else
      f_.apply(x, y, k);
  }
  void apply_m(const double* x, double* y, idx k) {
    if (k == 1)
      m_->apply(x, y);
    else
      m_->apply(x, y, k);
  }
  void project(const CPtrs& xs, const Ptrs& ys) {
    for (std::size_t b = 0; b < xs.size(); ++b) projector_.apply(xs[b], ys[b]);
  }
  void project_out(const KrylovRecycler& recycler, const Ptrs& ys) {
    for (double* y : ys) recycler.project_out(y, 1);
  }

 private:
  DualOperator& f_;
  precond::Preconditioner* m_;
  const Projector& projector_;
  std::vector<double> store_;
};

/// Loop state in one slab on the dual operator's device for the whole
/// solve. Bodies are submitted on the main stream; a readback is one D2H +
/// sync into a host mirror, so per iteration only scalar blocks cross PCIe.
/// The slab is freed after draining the device on every exit path —
/// including the std::bad_alloc unwinding that triggers the Auto-mode host
/// fallback.
class DeviceSpace {
 public:
  DeviceSpace(DualOperator& f, precond::Preconditioner* m,
              const Projector& projector)
      : f_(f), m_(m), projector_(projector), ctx_(*f.device_context()),
        dev_(ctx_.device()), main_(ctx_.main_stream()),
        // A preconditioner pooled on a different execution context (the
        // sharded operator anchors on its internal shard-0 context) submits
        // on streams with no ordering against `main`: drain `main` before
        // it reads. Same-context preconditioners share the in-order queue.
        foreign_m_(m != nullptr && m->device_context() != &ctx_) {}
  ~DeviceSpace() {
    if (slab_ == nullptr) return;
    dev_.synchronize();
    dev_.free(slab_);
  }
  DeviceSpace(const DeviceSpace&) = delete;
  DeviceSpace& operator=(const DeviceSpace&) = delete;

  double* allocate(std::size_t count) {
    slab_ = dev_.alloc_n<double>(count);
    return slab_;
  }
  template <class Body>
  void exec(Body&& body) {
    main_.submit(std::forward<Body>(body));
  }
  void upload(const Ptrs& dsts, const CPtrs& srcs, idx n) {
    for (std::size_t b = 0; b < dsts.size(); ++b)
      main_.memcpy_h2d(dsts[b], srcs[b], bytes(static_cast<std::size_t>(n)));
    main_.synchronize();
  }
  /// The returned mirror stays valid until the next read.
  double* read(double* src, std::size_t count) {
    if (count > mirror_.size()) {
      main_.synchronize();  // a pending commit may still read the mirror
      mirror_.resize(count);
    }
    main_.memcpy_d2h(mirror_.data(), src, bytes(count));
    main_.synchronize();
    return mirror_.data();
  }
  void commit(double* src, std::size_t count) {
    main_.memcpy_h2d(src, mirror_.data(), bytes(count));
  }

  void apply_f(const double* x, double* y, idx k) { f_.apply_device(x, y, k); }
  void apply_m(const double* x, double* y, idx k) {
    if (foreign_m_) main_.synchronize();
    m_->apply_device(x, y, k);
  }
  void project(const CPtrs& xs, const Ptrs& ys) {
    projector_.apply_device(dev_, main_, xs, ys);
  }
  void project_out(const KrylovRecycler& recycler, const Ptrs& ys) {
    recycler.project_out_device(dev_, main_, ys);
  }

 private:
  static std::size_t bytes(std::size_t count) { return count * sizeof(double); }

  DualOperator& f_;
  precond::Preconditioner* m_;
  const Projector& projector_;
  gpu::ExecutionContext& ctx_;
  gpu::Device& dev_;
  gpu::Stream main_;
  bool foreign_m_;
  double* slab_ = nullptr;
  std::vector<double> mirror_;  ///< host side of every readback
};

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Algorithm 1 over any vector space, for several systems at once. Two step
/// rules share the loop: lockstep (per-system pᵀq and wᵀy scalars) and
/// block (one search panel, PᵀFP Gram coefficients; options.block).
struct Engine {
  DualOperator& f;
  const Projector& projector;
  precond::Preconditioner* m;  ///< null = no preconditioning
  KrylovRecycler* recycler;    ///< null unless block recycling is on
  const PcpgOptions& options;

  /// ys[b] = (I − U(FU)ᵀ) P M⁻¹ ws[b] (line 12): one batched M⁻¹
  /// application (width 1 skips the pack), the projector, and the
  /// recycler's deflation (plain P when no recycled panel is attached).
  template <class Space>
  void precondition(Space& space, const CPtrs& ws, const Ptrs& ys,
                    double* tin, double* tout) const {
    const idx n = f.problem().num_lambdas;
    const idx k = static_cast<idx>(ws.size());
    if (k == 0) return;
    if (m == nullptr) {
      space.exec([ws, ys, n] {  // w is already projected
        for (std::size_t b = 0; b < ws.size(); ++b)
          std::copy_n(ws[b], n, ys[b]);
      });
    } else if (k == 1) {
      space.apply_m(ws.front(), tin, 1);
      space.project({tin}, ys);
    } else {
      space.exec(pack(ws, tin, n));
      space.apply_m(tin, tout, k);
      CPtrs cols;
      for (idx b = 0; b < k; ++b) cols.push_back(tout + b * n);
      space.project(cols, ys);
    }
    if (recycler != nullptr) space.project_out(*recycler, ys);
  }

  template <class Space>
  std::vector<PcpgResult> solve(Space& space,
                                const std::vector<double>* const* d,
                                std::size_t nsys,
                                bool throw_on_breakdown) const;
};

template <class Space>
std::vector<PcpgResult> Engine::solve(Space& space,
                                      const std::vector<double>* const* d,
                                      std::size_t nsys,
                                      bool throw_on_breakdown) const {
  const idx n = f.problem().num_lambdas;
  const std::size_t N = static_cast<std::size_t>(n);
  for (std::size_t j = 0; j < nsys; ++j)
    check(d[j]->size() == N, "Pcpg: rhs size mismatch");
  std::vector<PcpgResult> results(nsys);
  if (nsys == 0) return results;
  const bool block = options.block.enabled;

  /// Per-system state: host copies of λ and r (setup and finalization),
  /// the live vectors in the space, and the lockstep scalar wᵀy.
  struct System {
    std::vector<double> lambda, r;
    double* lam = nullptr;
    double* res = nullptr;
    double* w = nullptr;
    double* y = nullptr;
    double* p = nullptr;
    double w0_norm = 0.0;
    double wy = 0.0;
    double rel = 1.0;
    int iterations = 0;
    int deflation_dim = 0;
    bool active = true;
  };
  std::vector<System> sys(nsys);

  // One allocation for the whole solve: 5 per-system vectors, the search
  // panel P, Q = F·P, the preconditioner staging pair, and the Gram,
  // coefficient and scalar blocks.
  double* const mem = space.allocate(9 * nsys * N + 2 * nsys * nsys + nsys);
  for (std::size_t j = 0; j < nsys; ++j) {
    double* v = mem + 5 * j * N;
    sys[j].lam = v;
    sys[j].res = v + N;
    sys[j].w = v + 2 * N;
    sys[j].y = v + 3 * N;
    sys[j].p = v + 4 * N;
  }
  double* const ppanel = mem + 5 * nsys * N;
  double* const qpanel = ppanel + nsys * N;
  double* const tin = qpanel + nsys * N;
  double* const tout = tin + nsys * N;
  double* const gram_block = tout + nsys * N;
  double* const coeff_block = gram_block + nsys * nsys;
  double* const scalars = coeff_block + nsys * nsys;
  // Readback of `count` scalars, copied out because a finalization may read
  // again before they are all consumed.
  const auto fetch = [&](std::size_t count) {
    const double* v = space.read(scalars, count);
    return std::vector<double>(v, v + count);
  };

  // Pointers to one field of every system in `js`.
  const auto cols = [&](const std::vector<std::size_t>& js,
                        double* System::*field) {
    Ptrs out;
    for (std::size_t j : js) out.push_back(sys[j].*field);
    return out;
  };
  const auto ccols = [&](const std::vector<std::size_t>& js,
                         double* System::*field) {
    CPtrs out;
    for (std::size_t j : js) out.push_back(sys[j].*field);
    return out;
  };

  // λ₀ and F λ₀ depend on the problem only — computed once, shared.
  std::vector<double> lambda0(N), q0(N);
  projector.initial_lambda(lambda0.data());
  f.apply(lambda0.data(), q0.data());

  const auto finalize = [&](std::size_t j, bool converged, bool read_back) {
    System& s = sys[j];
    if (read_back) {
      std::copy_n(space.read(s.lam, N), N, s.lambda.data());
      std::copy_n(space.read(s.res, N), N, s.r.data());
    }
    if (converged && recycler != nullptr && s.iterations > 0) {
      // Harvest the converged step increment λ − λ₀ for the next step's
      // deflation space; its operator product F(λ − λ₀) = (d − r) − Fλ₀
      // falls out of the maintained residual — no extra apply. Recycling
      // the increment (rather than the raw search directions) matters
      // numerically: reconstructing it direction-by-direction from Uᵀr₀
      // bottoms out at the cold solve's residual-orthogonality loss
      // (~1e-5·‖r₀‖ here), while the increment is a single well-scaled
      // column whose Galerkin coefficient is O(1).
      std::vector<double> inc(N), finc(N);
      const std::vector<double>& dj = *d[j];
      for (idx i = 0; i < n; ++i) {
        inc[i] = s.lambda[i] - lambda0[i];
        finc[i] = dj[i] - s.r[i] - q0[i];
      }
      recycler->absorb(inc.data(), finc.data());
    }
    results[j].iterations = s.iterations;
    results[j].rel_residual = s.rel;
    results[j].converged = converged;
    results[j].deflation_dim = s.deflation_dim;
    results[j].alpha = projector.alpha(s.r.data());
    results[j].lambda = std::move(s.lambda);
    s.active = false;
  };

  // Setup (lines 1-5) on the host in both spaces: r₀, w₀ and its floor, the
  // Galerkin warm start, and the first search direction through one
  // *batched* host M⁻¹ application (whose SYMM path differs bitwise from
  // per-system SYMV); then one upload of the live state.
  std::vector<double> w0(nsys * N), y0(nsys * N);
  std::vector<std::size_t> batch;
  CPtrs ws;
  Ptrs ys;
  for (std::size_t j = 0; j < nsys; ++j) {
    System& s = sys[j];
    const std::vector<double>& dj = *d[j];
    double* wj = w0.data() + j * N;
    s.lambda = lambda0;
    s.r.resize(N);
    for (idx i = 0; i < n; ++i) s.r[i] = dj[i] - q0[i];
    projector.apply(s.r.data(), wj);
    // w₀ is measured before the deflation correction, so a warm start is
    // judged against the same baseline a cold solve would be — that is
    // what lets a recycled step finish in (near) zero iterations.
    s.w0_norm = la::nrm2(n, wj);
    if (s.w0_norm <= w0_floor(n, la::nrm2(n, dj.data()))) {
      s.rel = 0.0;
      finalize(j, /*converged=*/true, /*read_back=*/false);
      continue;
    }
    if (recycler != nullptr && recycler->dim() > 0) {
      s.deflation_dim = recycler->deflate_initial(s.lambda.data(),
                                                  s.r.data());
      projector.apply(s.r.data(), wj);
    }
    batch.push_back(j);
    ws.push_back(wj);
    ys.push_back(y0.data() + j * N);
  }
  {
    HostSpace host(f, m, projector);
    std::vector<double> host_tin(batch.size() * N), host_tout(batch.size() * N);
    precondition(host, ws, ys, host_tin.data(), host_tout.data());
  }
  Ptrs dsts;
  CPtrs srcs;
  for (std::size_t b = 0; b < batch.size(); ++b) {
    System& s = sys[batch[b]];
    if (!block) s.wy = la::dot(n, ws[b], ys[b]);
    dsts.insert(dsts.end(), {s.lam, s.res, s.w, s.y, s.p});
    srcs.insert(srcs.end(), {s.lambda.data(), s.r.data(), ws[b], ys[b],
                             ys[b]});  // p₀ = y₀
  }
  space.upload(dsts, srcs, n);

  GramSolver gram;
  for (;;) {
    // Lines 6 and 15: convergence and the iteration cap, on one readback of
    // every active system's ‖w‖.
    batch.clear();
    for (std::size_t j = 0; j < nsys; ++j)
      if (sys[j].active) batch.push_back(j);
    if (batch.empty()) break;
    ws = ccols(batch, &System::w);
    space.exec([ws, n, scalars] {
      for (std::size_t b = 0; b < ws.size(); ++b)
        scalars[b] = la::nrm2(n, ws[b]);
    });
    const std::vector<double> norms = fetch(batch.size());
    std::size_t kept = 0;
    for (std::size_t b = 0; b < ws.size(); ++b) {
      const std::size_t j = batch[b];
      System& s = sys[j];
      s.rel = norms[b] / s.w0_norm;
      if (s.rel <= options.rel_tolerance)
        finalize(j, /*converged=*/true, /*read_back=*/true);
      else if (s.iterations >= options.max_iterations)
        finalize(j, /*converged=*/false, /*read_back=*/true);
      else
        batch[kept++] = j;
    }
    batch.resize(kept);
    if (batch.empty()) break;

    // Line 7 for all still-active systems at once: Q = F P through the
    // batched apply. A width-1 panel (single-system solve, or the tail of a
    // draining batch) aliases the system's own search direction instead of
    // packing it; both step rules leave that direction intact while the
    // panel is read.
    const idx width = static_cast<idx>(batch.size());
    const std::size_t W = batch.size();
    const double* panel = sys[batch.front()].p;
    if (width > 1) {
      space.exec(pack(ccols(batch, &System::p), ppanel, n));
      panel = ppanel;
    }
    space.apply_f(panel, qpanel, width);

    if (!block) {
      // Lockstep step (lines 8-10): δ = wᵀy / pᵀq per system, then
      // λ += δ p and r −= δ q.
      space.exec([panel, qpanel, W, N, n, scalars] {
        for (std::size_t b = 0; b < W; ++b)
          scalars[b] = la::dot(n, panel + b * N, qpanel + b * N);
      });
      const std::vector<double> pq = fetch(W);
      std::vector<double> delta;
      CPtrs pcols, qcols;
      kept = 0;
      for (std::size_t b = 0; b < W; ++b) {
        const std::size_t j = batch[b];
        System& s = sys[j];
        if (pq[b] <= 0.0) {
          // solve() keeps the historical contract (throw); in a batch, one
          // ill-conditioned system must not discard the others' results.
          // λ/r/w are untouched by the failed step, so the reported rel and
          // alpha describe exactly that state, and the spent F apply counts.
          check(!throw_on_breakdown,
                "Pcpg: operator lost positive definiteness");
          ++s.iterations;
          finalize(j, /*converged=*/false, /*read_back=*/true);
          continue;
        }
        delta.push_back(s.wy / pq[b]);
        pcols.push_back(panel + b * N);
        qcols.push_back(qpanel + b * N);
        batch[kept++] = j;
      }
      batch.resize(kept);
      if (batch.empty()) continue;
      space.exec([delta, pcols, qcols, lams = cols(batch, &System::lam),
                  rs = cols(batch, &System::res), n] {
        for (std::size_t b = 0; b < delta.size(); ++b) {
          la::axpy(n, delta[b], pcols[b], lams[b]);
          la::axpy(n, -delta[b], qcols[b], rs[b]);
        }
      });
    } else {
      // Block step: the Gram system PᵀFP with rank-revealing pivoting — a
      // nearly dependent column is deflated (zero coefficient) instead of
      // breaking the solve.
      space.exec([panel, qpanel, gram_block, width, n] {
        la::DenseView g(gram_block, width, width, width, la::Layout::ColMajor);
        la::gemm(1.0, panel_view(panel, n, width), la::Trans::Yes,
                 panel_view(qpanel, n, width), la::Trans::No, 0.0, g);
      });
      gram.factor(space.read(gram_block, W * W), width,
                  options.block.pivot_rel_tolerance);
      if (gram.rank() == 0) {
        // The whole panel lost positive definiteness — nothing can
        // advance. Same consistent-final-state contract as the lockstep
        // breakdown.
        check(!throw_on_breakdown,
              "Pcpg: operator lost positive definiteness");
        for (std::size_t j : batch) {
          ++sys[j].iterations;
          finalize(j, /*converged=*/false, /*read_back=*/true);
        }
        continue;  // next top-of-loop sees no active systems and exits
      }
      // Per system α = Gram⁻¹ Pᵀw (pᵀr = pᵀw for projected panels), then
      // λ += P α and r −= Q α: every system advances through the union of
      // the block's search directions.
      space.exec([panel, ws = ccols(batch, &System::w), coeff_block, width,
                  W, n] {
        for (std::size_t b = 0; b < W; ++b)
          la::gemv(1.0, panel_view(panel, n, width), la::Trans::Yes, ws[b],
                   0.0, coeff_block + b * W);
      });
      double* alpha = space.read(coeff_block, W * W);
      for (std::size_t b = 0; b < W; ++b) gram.solve(alpha + b * W);
      space.commit(coeff_block, W * W);
      space.exec([panel, qpanel, coeff_block, lams = cols(batch, &System::lam),
                  rs = cols(batch, &System::res), width, W, n] {
        for (std::size_t b = 0; b < W; ++b) {
          const double* c = coeff_block + b * W;
          la::gemv(1.0, panel_view(panel, n, width), la::Trans::No, c, 1.0,
                   lams[b]);
          la::gemv(-1.0, panel_view(qpanel, n, width), la::Trans::No, c, 1.0,
                   rs[b]);
        }
      });
    }

    // Line 11 for every system that stepped, then line 12 through one
    // batched preconditioner application.
    ys = cols(batch, &System::y);
    space.project(ccols(batch, &System::res), cols(batch, &System::w));
    precondition(space, ccols(batch, &System::w), ys, tin, tout);
    for (std::size_t j : batch) ++sys[j].iterations;

    if (!block) {
      // Lines 13-14: β = wᵀy / (previous wᵀy), p = y + β p.
      space.exec([ws = ccols(batch, &System::w), ys, n, scalars] {
        for (std::size_t b = 0; b < ws.size(); ++b)
          scalars[b] = la::dot(n, ws[b], ys[b]);
      });
      const std::vector<double> wy = fetch(batch.size());
      std::vector<double> beta;
      for (std::size_t b = 0; b < batch.size(); ++b) {
        System& s = sys[batch[b]];
        beta.push_back(wy[b] / s.wy);
        s.wy = wy[b];
      }
      space.exec([ys, beta, ps = cols(batch, &System::p), n] {
        for (std::size_t b = 0; b < ys.size(); ++b)
          for (idx i = 0; i < n; ++i) ps[b][i] = ys[b][i] + beta[b] * ps[b][i];
      });
    } else {
      // Next panel: Y conjugated against the current one via
      // β = −Gram⁻¹ QᵀY. The new direction is formed in place on y and
      // swapped in as p, so a width-1 panel aliasing p is never clobbered
      // while it is read.
      space.exec([qpanel, ys, coeff_block, width, W, n] {
        for (std::size_t b = 0; b < W; ++b)
          la::gemv(1.0, panel_view(qpanel, n, width), la::Trans::Yes, ys[b],
                   0.0, coeff_block + b * W);
      });
      double* beta = space.read(coeff_block, W * W);
      for (std::size_t b = 0; b < W; ++b) {
        gram.solve(beta + b * W);
        la::scal(width, -1.0, beta + b * W);
      }
      space.commit(coeff_block, W * W);
      space.exec([panel, ys, coeff_block, width, W, n] {
        for (std::size_t b = 0; b < W; ++b)
          la::gemv(1.0, panel_view(panel, n, width), la::Trans::No,
                   coeff_block + b * W, 1.0, ys[b]);
      });
      for (std::size_t j : batch) std::swap(sys[j].p, sys[j].y);
    }
  }
  return results;
}

}  // namespace

Pcpg::Pcpg(DualOperator& f, const Projector& projector, PcpgOptions options,
           precond::Preconditioner* m)
    : f_(f), projector_(projector), options_(std::move(options)), m_(m) {
  const std::string key = precond::normalize_key(options_.preconditioner);
  if (m_ == nullptr && key != "none") {
    // Self-managed fallback for callers that only set the key: a CPU
    // instance, prepared and value-updated here. Lifecycle-aware callers
    // (FetiSolver, the service layer) pass their pooled instance instead —
    // the only route for GPU keys, since Pcpg holds no execution context.
    auto& registry = precond::PreconditionerRegistry::instance();
    check(!registry.uses_gpu(key),
          "Pcpg: GPU preconditioner '" + key +
              "' requires a caller-supplied prepared instance");
    owned_m_ = registry.create(key, f_.problem());
    owned_m_->prepare();
    owned_m_->update_values();
    m_ = owned_m_.get();
  }
}

Pcpg::~Pcpg() = default;

PcpgResult Pcpg::solve(const std::vector<double>& d) {
  const std::vector<double>* dp = &d;
  std::vector<PcpgResult> results = run(&dp, 1, /*throw_on_breakdown=*/true);
  return std::move(results.front());
}

std::vector<PcpgResult> Pcpg::solve_many(
    const std::vector<std::vector<double>>& d) {
  std::vector<const std::vector<double>*> ptrs;
  ptrs.reserve(d.size());
  for (const auto& di : d) ptrs.push_back(&di);
  return solve_many_ptrs(ptrs);
}

std::vector<PcpgResult> Pcpg::solve_many_ptrs(
    const std::vector<const std::vector<double>*>& d) {
  return run(d.data(), d.size(), /*throw_on_breakdown=*/false);
}

bool Pcpg::device_eligible() {
  using DS = PcpgOptions::DeviceState;
  if (options_.device_state == DS::Off) return false;
  const bool f_ok = f_.device_context() != nullptr;
  const bool m_ok = m_ == nullptr || m_->device_context() != nullptr;
  if (options_.device_state == DS::On) {
    check(f_ok, "Pcpg: device_state=on but the dual operator has no device "
                "context (host-only operator key)");
    check(m_ok, "Pcpg: device_state=on but the preconditioner has no device "
                "context (use a 'gpu' preconditioner key)");
  }
  return f_ok && m_ok;
}

std::vector<PcpgResult> Pcpg::run(const std::vector<double>* const* d,
                                  std::size_t nsys, bool throw_on_breakdown) {
  const Engine engine{
      f_, projector_, m_,
      options_.block.enabled && options_.block.recycle ? recycler_ : nullptr,
      options_};
  if (device_eligible()) {
    try {
      DeviceSpace space(f_, m_, projector_);
      return engine.solve(space, d, nsys, throw_on_breakdown);
    } catch (const std::bad_alloc&) {
      // Device memory exhausted. Auto re-runs the same loop on the host (a
      // re-run from scratch is safe: the device run only mutates device
      // state plus the recycler, and a duplicate absorb of the same
      // increment is dropped by its F-orthogonalization floor).
      if (options_.device_state == PcpgOptions::DeviceState::On) throw;
    }
  }
  HostSpace space(f_, m_, projector_);
  return engine.solve(space, d, nsys, throw_on_breakdown);
}

}  // namespace feti::core
