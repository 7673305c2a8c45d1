#include "gpu/sparse.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "la/blas_sparse.hpp"

namespace feti::gpu::sparse {

const char* to_string(Api a) {
  return a == Api::Legacy ? "legacy" : "modern";
}

Api parse_api(std::string_view s) {
  if (s == "legacy") return Api::Legacy;
  if (s == "modern") return Api::Modern;
  throw std::invalid_argument("parse_api: unknown sparse API '" +
                              std::string(s) + "'");
}

namespace {

la::CsrView device_view(const DeviceCsr& d) {
  return {d.nrows, d.ncols, d.rowptr, d.colidx, d.vals};
}

/// Transpose-with-source-tracking: returns the CSR structure of the
/// transpose of `m` plus, for each transposed entry, the index of the
/// source entry in `m` (the value permutation).
void transpose_structure(const la::Csr& m, std::vector<idx>& rowptr,
                         std::vector<idx>& colidx, std::vector<idx>& srcidx) {
  const idx rows = m.nrows(), cols = m.ncols(), nnz = m.nnz();
  rowptr.assign(static_cast<std::size_t>(cols) + 1, 0);
  colidx.resize(static_cast<std::size_t>(nnz));
  srcidx.resize(static_cast<std::size_t>(nnz));
  for (idx k = 0; k < nnz; ++k) rowptr[m.colidx()[k] + 1] += 1;
  for (idx c = 0; c < cols; ++c) rowptr[c + 1] += rowptr[c];
  std::vector<idx> next(rowptr.begin(), rowptr.end() - 1);
  for (idx r = 0; r < rows; ++r)
    for (idx k = m.row_begin(r); k < m.row_end(r); ++k) {
      const idx pos = next[m.col(k)]++;
      colidx[pos] = r;
      srcidx[pos] = k;
    }
}

/// Level schedule depth of a triangular factor (dependency DAG longest
/// path). `lower` chooses the traversal direction.
idx compute_levels(const la::Csr& factor, bool stored_lower) {
  const idx n = factor.nrows();
  std::vector<idx> level(static_cast<std::size_t>(n), 0);
  idx depth = 0;
  if (stored_lower) {
    for (idx r = 0; r < n; ++r) {
      idx lv = 0;
      for (idx k = factor.row_begin(r); k < factor.row_end(r); ++k)
        if (factor.col(k) < r) lv = std::max(lv, level[factor.col(k)] + 1);
      level[r] = lv;
      depth = std::max(depth, lv + 1);
    }
  } else {
    for (idx r = n - 1; r >= 0; --r) {
      idx lv = 0;
      for (idx k = factor.row_begin(r); k < factor.row_end(r); ++k)
        if (factor.col(k) > r) lv = std::max(lv, level[factor.col(k)] + 1);
      level[r] = lv;
      depth = std::max(depth, lv + 1);
    }
  }
  return depth;
}

}  // namespace

// ---------------------------------------------------------------------------
// SpTrsmPlan
// ---------------------------------------------------------------------------

SpTrsmPlan::SpTrsmPlan(Device& dev, Stream& s, Api api,
                       const la::Csr& host_upper, la::Layout factor_order,
                       bool forward, la::Layout rhs_layout, idx max_rhs_cols)
    : dev_(&dev), api_(api), forward_(forward), factor_order_(factor_order),
      rhs_layout_(rhs_layout), n_(host_upper.nrows()),
      nnz_(host_upper.nnz()), max_cols_(max_rhs_cols) {
  check(host_upper.nrows() == host_upper.ncols(),
        "SpTrsmPlan: factor must be square");

  // The modern API always normalizes to its internal (lower CSR) format;
  // legacy uses the caller-provided orientation directly.
  const bool want_lower =
      api_ == Api::Modern || factor_order_ == la::Layout::RowMajor;

  // Host staging of the transposed structure, declared outside the try so
  // the asynchronous uploads that read it are drained before it dies.
  std::vector<idx> rowptr, colidx, srcidx;
  try {
    auto track = [&](std::size_t bytes) { persistent_bytes_ += bytes; };

    factor_.nrows = n_;
    factor_.ncols = n_;
    factor_.nnz = nnz_;
    if (want_lower) {
      // Build the transposed structure (CSR of L) and the value
      // permutation; values are routed through a staging buffer every
      // refresh. The extra buffers model the "additional memory with the
      // size around the size of the factor" the paper reports for the
      // non-native factor order.
      transpose_structure(host_upper, rowptr, colidx, srcidx);
      factor_.rowptr = dev.alloc_n<idx>(rowptr.size());
      factor_.colidx =
          dev.alloc_n<idx>(std::max<std::size_t>(1, colidx.size()));
      factor_.vals = dev.alloc_n<double>(std::max<idx>(1, nnz_));
      s.memcpy_h2d(factor_.rowptr, rowptr.data(),
                   rowptr.size() * sizeof(idx));
      if (nnz_ > 0)
        s.memcpy_h2d(factor_.colidx, colidx.data(),
                     colidx.size() * sizeof(idx));
      valperm_ = upload_array(dev, s, srcidx);
      staging_ = dev.alloc_n<double>(std::max<idx>(1, nnz_));
      track(sizeof(idx) * (rowptr.size() + 2 * colidx.size()) +
            sizeof(double) * 2 * static_cast<std::size_t>(nnz_));
    } else {
      factor_.rowptr = dev.alloc_n<idx>(static_cast<std::size_t>(n_) + 1);
      factor_.colidx = dev.alloc_n<idx>(std::max<idx>(1, nnz_));
      factor_.vals = dev.alloc_n<double>(std::max<idx>(1, nnz_));
      s.memcpy_h2d(factor_.rowptr, host_upper.rowptr().data(),
                   (static_cast<std::size_t>(n_) + 1) * sizeof(idx));
      if (nnz_ > 0)
        s.memcpy_h2d(factor_.colidx, host_upper.colidx().data(),
                     static_cast<std::size_t>(nnz_) * sizeof(idx));
      track(sizeof(idx) * (static_cast<std::size_t>(n_) + 1 + nnz_) +
            sizeof(double) * static_cast<std::size_t>(nnz_));
    }

    if (api_ == Api::Modern) {
      // Persistent dense RHS workspace — the large buffer the paper calls
      // out.
      modern_work_ = dev.alloc_n<double>(
          std::max<widx>(1, static_cast<widx>(n_) * max_cols_));
      track(sizeof(double) * static_cast<std::size_t>(n_) * max_cols_);
    }

    levels_ = compute_levels(host_upper, /*stored_lower=*/false);
    update_values(s, host_upper);
    // The analysis phase is synchronous (as in cuSPARSE): the structure
    // uploads above read from constructor-local host buffers, which must
    // stay alive until the copies complete.
    s.synchronize();
  } catch (...) {
    // A later allocation ran out of device memory: give back the earlier
    // buffers (and their share of Device::memory_used()) before unwinding.
    s.synchronize();
    release();
    throw;
  }
}

void SpTrsmPlan::release() {
  if (dev_ == nullptr) return;
  dev_->free(factor_.rowptr);
  dev_->free(factor_.colidx);
  dev_->free(factor_.vals);
  dev_->free(staging_);
  dev_->free(valperm_);
  dev_->free(modern_work_);
  dev_ = nullptr;
}

SpTrsmPlan::~SpTrsmPlan() { release(); }

SpTrsmPlan::SpTrsmPlan(SpTrsmPlan&& o) noexcept { *this = std::move(o); }

SpTrsmPlan& SpTrsmPlan::operator=(SpTrsmPlan&& o) noexcept {
  if (this != &o) {
    release();
    dev_ = std::exchange(o.dev_, nullptr);
    api_ = o.api_;
    forward_ = o.forward_;
    factor_order_ = o.factor_order_;
    rhs_layout_ = o.rhs_layout_;
    n_ = o.n_;
    nnz_ = o.nnz_;
    max_cols_ = o.max_cols_;
    factor_ = std::exchange(o.factor_, DeviceCsr{});
    staging_ = std::exchange(o.staging_, nullptr);
    valperm_ = std::exchange(o.valperm_, nullptr);
    modern_work_ = std::exchange(o.modern_work_, nullptr);
    levels_ = o.levels_;
    persistent_bytes_ = o.persistent_bytes_;
  }
  return *this;
}

void SpTrsmPlan::update_values(Stream& s, const la::Csr& host_upper) {
  check(dev_ != nullptr, "SpTrsmPlan: invalid plan");
  check(host_upper.nnz() == nnz_, "SpTrsmPlan: factor nnz changed");
  if (nnz_ == 0) return;
  if (valperm_ != nullptr) {
    s.memcpy_h2d(staging_, host_upper.vals().data(),
                 static_cast<std::size_t>(nnz_) * sizeof(double));
    const double* src = staging_;
    double* dst = factor_.vals;
    const idx* perm = valperm_;
    const idx count = nnz_;
    s.submit([src, dst, perm, count] {
      for (idx k = 0; k < count; ++k) dst[k] = src[perm[k]];
    });
  } else {
    s.memcpy_h2d(factor_.vals, host_upper.vals().data(),
                 static_cast<std::size_t>(nnz_) * sizeof(double));
  }
}

std::size_t SpTrsmPlan::workspace_bytes(idx rhs_cols) const {
  if (api_ == Api::Modern) return 0;  // persistent workspace instead
  if (rhs_layout_ == la::Layout::RowMajor) return 0;
  // Legacy + col-major RHS: row-major staging copy of the RHS.
  return sizeof(double) * static_cast<std::size_t>(n_) * rhs_cols;
}

void SpTrsmPlan::solve(Stream& s, DeviceDense b, void* workspace) const {
  check(dev_ != nullptr, "SpTrsmPlan: invalid plan");
  check(b.rows == n_, "SpTrsmPlan: RHS dimension mismatch");
  check(b.cols <= max_cols_, "SpTrsmPlan: RHS wider than planned");
  check(b.layout == rhs_layout_, "SpTrsmPlan: RHS layout differs from plan");

  // Effective (uplo, trans) of the stored factor for the requested solve.
  const bool stored_lower =
      api_ == Api::Modern || factor_order_ == la::Layout::RowMajor;
  const la::Uplo uplo = stored_lower ? la::Uplo::Lower : la::Uplo::Upper;
  const la::Trans trans = (stored_lower == forward_)
                              ? la::Trans::No
                              : la::Trans::Yes;
  const DeviceCsr factor = factor_;

  if (api_ == Api::Legacy) {
    if (rhs_layout_ == la::Layout::RowMajor) {
      s.submit([factor, uplo, trans, b] {
        la::sp_trsm(uplo, trans, device_view(factor), b.view());
      });
    } else {
      check(workspace != nullptr,
            "SpTrsmPlan: legacy col-major RHS needs a workspace");
      auto* w = static_cast<double*>(workspace);
      s.submit([factor, uplo, trans, b, w] {
        // Stage through a row-major copy (vectorized solve), then copy back.
        la::DenseView tmp{w, b.rows, b.cols, b.cols, la::Layout::RowMajor};
        la::copy(b.cview(), tmp);
        la::sp_trsm(uplo, trans, device_view(factor), tmp);
        la::copy(la::ConstDenseView(tmp), b.view());
      });
    }
  } else {
    // Modern generic path: stage the RHS in the persistent col-major
    // workspace and solve column by column (no cross-RHS vectorization).
    double* work = modern_work_;
    s.submit([factor, uplo, trans, b, work] {
      la::DenseView tmp{work, b.rows, b.cols, b.rows, la::Layout::ColMajor};
      la::copy(b.cview(), tmp);
      for (idx j = 0; j < b.cols; ++j)
        la::sp_trsv(uplo, trans, device_view(factor),
                    work + static_cast<widx>(j) * b.rows);
      la::copy(la::ConstDenseView(tmp), b.view());
    });
  }
}

// ---------------------------------------------------------------------------
// SpMV / SpMM / conversions
// ---------------------------------------------------------------------------

void spmv(Stream& s, double alpha, DeviceCsr a, la::Trans trans,
          const double* x, double beta, double* y) {
  s.submit([=] {
    if (trans == la::Trans::No)
      la::spmv(alpha, device_view(a), x, beta, y);
    else
      la::spmv_trans(alpha, device_view(a), x, beta, y);
  });
}

void spmm(Stream& s, double alpha, DeviceCsr a, la::Trans trans,
          DeviceDense b, double beta, DeviceDense c) {
  s.submit([=] {
    la::spmm(alpha, device_view(a), trans, b.cview(), beta, c.view());
  });
}

void csr_to_dense(Stream& s, DeviceCsr a, DeviceDense out) {
  check(out.rows == a.nrows && out.cols == a.ncols,
        "csr_to_dense: dimension mismatch");
  s.submit([a, out] {
    la::DenseView o = out.view();
    for (idx r = 0; r < o.rows; ++r)
      for (idx c = 0; c < o.cols; ++c) o.at(r, c) = 0.0;
    const la::CsrView v = device_view(a);
    for (idx r = 0; r < v.nrows(); ++r)
      for (idx k = v.row_begin(r); k < v.row_end(r); ++k)
        o.at(r, v.col(k)) = v.val(k);
  });
}

void csr_to_dense_transposed(Stream& s, DeviceCsr a, DeviceDense out) {
  check(out.rows == a.ncols && out.cols == a.nrows,
        "csr_to_dense_transposed: dimension mismatch");
  s.submit([a, out] {
    la::DenseView o = out.view();
    for (idx r = 0; r < o.rows; ++r)
      for (idx c = 0; c < o.cols; ++c) o.at(r, c) = 0.0;
    const la::CsrView v = device_view(a);
    for (idx r = 0; r < v.nrows(); ++r)
      for (idx k = v.row_begin(r); k < v.row_end(r); ++k)
        o.at(v.col(k), r) = v.val(k);
  });
}

}  // namespace feti::gpu::sparse
