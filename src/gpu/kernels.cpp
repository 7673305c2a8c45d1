#include "gpu/kernels.hpp"

#include <algorithm>

#include "la/blas_dense.hpp"

namespace feti::gpu::kernels {

// The scatter/gather kernels are header templates (instantiated for the
// fp64 and fp32 local-panel scalars); only the non-template utilities and
// the demotion kernels live here.

void fill_zero(Stream& s, double* data, idx n) {
  s.submit([data, n] { std::fill_n(data, n, 0.0); });
}

void demote(Stream& s, DeviceDense src, DeviceDenseF32 dst) {
  s.submit([src, dst] { la::demote(src.cview(), dst.view()); });
}

void demote_triangle(Stream& s, la::Uplo uplo, DeviceDense src,
                     DeviceDenseF32 dst) {
  s.submit(
      [uplo, src, dst] { la::demote_triangle(uplo, src.cview(), dst.view()); });
}

void symmetrize(Stream& s, la::Uplo stored, DeviceDense a) {
  s.submit([stored, a] { la::symmetrize_from(a.view(), stored); });
}

}  // namespace feti::gpu::kernels
