// Single-precision general matrix multiply, the computational core of the
// dense layers and of the im2col-lowered Conv1d (Conv2d runs direct
// kernels instead, see nn/conv2d.hpp). Cache-blocked with a vectorisable
// micro-kernel and optional thread-pool row parallelism.
#pragma once

#include <cstddef>

namespace prionn::tensor {

/// C[m x n] = alpha * A[m x k] * B[k x n] + beta * C.  Row-major, no alias.
void gemm(std::size_t m, std::size_t k, std::size_t n, float alpha,
          const float* a, const float* b, float beta, float* c);

/// C[m x n] = alpha * A^T[k x m] * B[k x n] + beta * C (A stored k x m).
void gemm_at(std::size_t m, std::size_t k, std::size_t n, float alpha,
             const float* a, const float* b, float beta, float* c);

/// C[m x n] = alpha * A[m x k] * B^T[n x k] + beta * C (B stored n x k).
/// Below four rows (Dense at serving batch sizes) B is read in place as
/// row dot products; the result is bitwise the rows of a larger call.
void gemm_bt(std::size_t m, std::size_t k, std::size_t n, float alpha,
             const float* a, const float* b, float beta, float* c);

}  // namespace prionn::tensor
