#pragma once

// Auxiliary device kernels: batched scatter/gather between the cluster-wide
// dual vector and the per-subdomain dual vectors (Section IV-B/IV-C of the
// paper: a single kernel handles all subdomains when scatter/gather runs on
// the GPU), plus small vector utilities and the fp64→fp32 demotion kernels
// of the mixed-precision explicit operators.
//
// Both single-RHS and multi-RHS variants exist. The multi-RHS kernels move
// all subdomains × all right-hand sides in one submission: the cluster-wide
// block stores its columns at stride `cluster_ld` (column j of the dual
// system j starts at cluster + j * cluster_ld), and each subdomain's local
// block is an n × nrhs dense panel whose layout/leading dimension the
// caller chooses (a batch narrower than the allocated panel reuses the
// leading columns).
//
// The local-panel scalar is a template parameter: the cluster-wide dual
// vectors always stay fp64, and the fp32 instantiation downcasts on
// scatter and accumulates the fp32 locals into the fp64 cluster vector on
// gather (the "fp64 accumulation at the dual-vector reduction" of the
// mixed-precision apply).

#include <vector>

#include "gpu/data.hpp"
#include "gpu/runtime.hpp"

namespace feti::gpu::kernels {

/// One subdomain's slice of a scatter/gather: `map[i]` is the cluster index
/// of local lambda i. An optional per-row weight vector turns the pair of
/// kernels into the scaled restriction/prolongation of the preconditioner
/// layer (local = D·scatter(x) on the way in, cluster += D·local on the
/// way out); nullptr means unweighted, and existing braced initializers
/// stay valid because the member trails.
template <typename T>
struct DualMapT {
  const idx* map = nullptr;  ///< device array, length n
  idx n = 0;
  T* local = nullptr;        ///< device subdomain vector, length n
  const double* weight = nullptr;  ///< optional device array, length n
};

using DualMap = DualMapT<double>;
using DualMapF32 = DualMapT<float>;

/// One subdomain's slice of a multi-RHS scatter/gather: the local panel is
/// n × nrhs dense with leading dimension `ld` (row-major: ld >= nrhs,
/// col-major: ld >= n — the layout is a shared kernel argument).
template <typename T>
struct DualMapBlockT {
  const idx* map = nullptr;  ///< device array, length n
  idx n = 0;
  T* local = nullptr;        ///< device panel, n × nrhs, leading dim ld
  idx ld = 0;
  const double* weight = nullptr;  ///< optional device array, length n
};

using DualMapBlock = DualMapBlockT<double>;
using DualMapBlockF32 = DualMapBlockT<float>;

/// Single submission moving all subdomains × all RHS:
/// local(i, j) = T(cluster[map[i] + j * cluster_ld]) for j in [0, nrhs).
/// nrhs == 0 submits nothing (no-op).
template <typename T>
void scatter_batch(Stream& s, const double* cluster, idx cluster_ld,
                   idx nrhs, la::Layout local_layout,
                   std::vector<DualMapBlockT<T>> jobs) {
  if (nrhs == 0) return;
  s.submit([cluster, cluster_ld, nrhs, local_layout,
            jobs = std::move(jobs)] {
    for (const auto& j : jobs) {
      if (local_layout == la::Layout::RowMajor) {
        // Row i of the panel holds lambda i of every RHS: the inner loop
        // streams over the right-hand sides with one map lookup per row.
        for (idx i = 0; i < j.n; ++i) {
          const double* src = cluster + j.map[i];
          const double w = j.weight != nullptr ? j.weight[i] : 1.0;
          T* row = j.local + static_cast<widx>(i) * j.ld;
          for (idx r = 0; r < nrhs; ++r)
            row[r] =
                static_cast<T>(w * src[static_cast<widx>(r) * cluster_ld]);
        }
      } else {
        for (idx r = 0; r < nrhs; ++r) {
          const double* src = cluster + static_cast<widx>(r) * cluster_ld;
          T* col = j.local + static_cast<widx>(r) * j.ld;
          for (idx i = 0; i < j.n; ++i)
            col[i] = static_cast<T>(
                (j.weight != nullptr ? j.weight[i] : 1.0) * src[j.map[i]]);
        }
      }
    }
  });
}

/// Single submission: zero-fills the first nrhs cluster columns (each of
/// length cluster_size at stride cluster_ld), then accumulates
/// cluster[map[i] + j * cluster_ld] += local(i, j) over every subdomain —
/// overlapping dual indices sum, as in the single-RHS gather. The cluster
/// accumulation is always fp64, whatever the local-panel scalar.
/// nrhs == 0 submits nothing (the cluster block is left untouched).
template <typename T>
void gather_batch(Stream& s, double* cluster, idx cluster_size,
                  idx cluster_ld, idx nrhs, la::Layout local_layout,
                  std::vector<DualMapBlockT<T>> jobs) {
  if (nrhs == 0) return;
  s.submit([cluster, cluster_size, cluster_ld, nrhs, local_layout,
            jobs = std::move(jobs)] {
    for (idx r = 0; r < nrhs; ++r)
      std::fill_n(cluster + static_cast<widx>(r) * cluster_ld, cluster_size,
                  0.0);
    for (const auto& j : jobs) {
      if (local_layout == la::Layout::RowMajor) {
        for (idx i = 0; i < j.n; ++i) {
          double* dst = cluster + j.map[i];
          const double w = j.weight != nullptr ? j.weight[i] : 1.0;
          const T* row = j.local + static_cast<widx>(i) * j.ld;
          for (idx r = 0; r < nrhs; ++r)
            dst[static_cast<widx>(r) * cluster_ld] +=
                w * static_cast<double>(row[r]);
        }
      } else {
        for (idx r = 0; r < nrhs; ++r) {
          double* dst = cluster + static_cast<widx>(r) * cluster_ld;
          const T* col = j.local + static_cast<widx>(r) * j.ld;
          for (idx i = 0; i < j.n; ++i)
            dst[j.map[i]] += (j.weight != nullptr ? j.weight[i] : 1.0) *
                             static_cast<double>(col[i]);
        }
      }
    }
  });
}

/// Single submission: local[i] = cluster[map[i]] for every subdomain.
template <typename T>
void scatter_batch(Stream& s, const double* cluster,
                   std::vector<DualMapT<T>> jobs) {
  std::vector<DualMapBlockT<T>> blocks;
  blocks.reserve(jobs.size());
  for (const auto& j : jobs)
    blocks.push_back({j.map, j.n, j.local, 1, j.weight});
  scatter_batch(s, cluster, /*cluster_ld=*/0, /*nrhs=*/1,
                la::Layout::RowMajor, std::move(blocks));
}

/// Single submission: cluster = sum of scattered locals; zero-fills the
/// cluster vector first.
template <typename T>
void gather_batch(Stream& s, double* cluster, idx cluster_size,
                  std::vector<DualMapT<T>> jobs) {
  std::vector<DualMapBlockT<T>> blocks;
  blocks.reserve(jobs.size());
  for (const auto& j : jobs)
    blocks.push_back({j.map, j.n, j.local, 1, j.weight});
  gather_batch(s, cluster, cluster_size, /*cluster_ld=*/cluster_size,
               /*nrhs=*/1, la::Layout::RowMajor, std::move(blocks));
}

// Non-template fp64 overloads: template-argument deduction cannot see
// through a braced job list ({{map, n, local}}), and fp64 is the common
// case — these forward to the templates above.

inline void scatter_batch(Stream& s, const double* cluster, idx cluster_ld,
                          idx nrhs, la::Layout local_layout,
                          std::vector<DualMapBlock> jobs) {
  scatter_batch<double>(s, cluster, cluster_ld, nrhs, local_layout,
                        std::move(jobs));
}

inline void gather_batch(Stream& s, double* cluster, idx cluster_size,
                         idx cluster_ld, idx nrhs, la::Layout local_layout,
                         std::vector<DualMapBlock> jobs) {
  gather_batch<double>(s, cluster, cluster_size, cluster_ld, nrhs,
                       local_layout, std::move(jobs));
}

inline void scatter_batch(Stream& s, const double* cluster,
                          std::vector<DualMap> jobs) {
  scatter_batch<double>(s, cluster, std::move(jobs));
}

inline void gather_batch(Stream& s, double* cluster, idx cluster_size,
                         std::vector<DualMap> jobs) {
  gather_batch<double>(s, cluster, cluster_size, std::move(jobs));
}

/// Sets a device vector to zero.
void fill_zero(Stream& s, double* data, idx n);

/// fp64→fp32 demotion of a device dense matrix (full rectangle; layouts
/// and leading dimensions may differ). One stream-ordered submission.
void demote(Stream& s, DeviceDense src, DeviceDenseF32 dst);

/// Triangle-only demotion for symmetric-packed fp32 storage: only the
/// `uplo` triangle of `dst` is written, so two matrices sharing one packed
/// allocation with opposite triangles stay disjoint (paper footnote 1).
void demote_triangle(Stream& s, la::Uplo uplo, DeviceDense src,
                     DeviceDenseF32 dst);

/// Mirrors the stored triangle of a square device matrix onto the other
/// one (the device analogue of la::symmetrize_from). Used by the
/// sparsity-aware assembly to turn the one-triangle G_bb of SYRK into the
/// full symmetric operand of the two boundary SpMMs.
void symmetrize(Stream& s, la::Uplo stored, DeviceDense a);

}  // namespace feti::gpu::kernels
