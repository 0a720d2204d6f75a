#include "tensor/gemm.hpp"

#include <algorithm>
#include <vector>

#include "util/thread_pool.hpp"

namespace prionn::tensor {

namespace {

// Register-tiled micro-kernel: an MR x NR accumulator block lives in
// vector registers for the whole k-strip, so each element of C is loaded
// and stored once per k-block instead of once per k iteration. NR = 32
// floats is two AVX-512 lanes (or four AVX2 lanes); MR = 4 keeps
// MR * NR / 32 + spare well under the register budget.
constexpr std::size_t kMR = 4;
constexpr std::size_t kNR = 32;
// Cache blocking: a kKC x kNC panel of B (~512 KiB) fits in L2.
constexpr std::size_t kKC = 256;
constexpr std::size_t kNC = 512;

inline void micro_full(std::size_t kc, float alpha, const float* a,
                       std::size_t lda, const float* b, std::size_t ldb,
                       float* c, std::size_t ldc) {
  float acc[kMR][kNR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* bp = b + p * ldb;
    for (std::size_t i = 0; i < kMR; ++i) {
      const float aip = a[i * lda + p];
      for (std::size_t j = 0; j < kNR; ++j) acc[i][j] += aip * bp[j];
    }
  }
  for (std::size_t i = 0; i < kMR; ++i)
    for (std::size_t j = 0; j < kNR; ++j)
      c[i * ldc + j] += alpha * acc[i][j];
}

/// Edge kernel for remainder tiles (mr <= kMR, nr <= kNR).
inline void micro_edge(std::size_t mr, std::size_t nr, std::size_t kc,
                       float alpha, const float* a, std::size_t lda,
                       const float* b, std::size_t ldb, float* c,
                       std::size_t ldc) {
  float acc[kMR][kNR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* bp = b + p * ldb;
    for (std::size_t i = 0; i < mr; ++i) {
      const float aip = a[i * lda + p];
      for (std::size_t j = 0; j < nr; ++j) acc[i][j] += aip * bp[j];
    }
  }
  for (std::size_t i = 0; i < mr; ++i)
    for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] += alpha * acc[i][j];
}

/// C rows [row_lo, row_hi) *= beta, with beta == 0 overwriting (so NaN
/// in C does not survive).
void scale_rows(std::size_t row_lo, std::size_t row_hi, std::size_t n,
                float beta, float* c) {
  for (std::size_t i = row_lo; i < row_hi; ++i) {
    float* ci = c + i * n;
    if (beta == 0.0f) {
      std::fill(ci, ci + n, 0.0f);
    } else if (beta != 1.0f) {
      for (std::size_t j = 0; j < n; ++j) ci[j] *= beta;
    }
  }
}

void gemm_rows(std::size_t row_lo, std::size_t row_hi, std::size_t k,
               std::size_t n, float alpha, const float* a, const float* b,
               float beta, float* c) {
  scale_rows(row_lo, row_hi, n, beta, c);
  for (std::size_t pc = 0; pc < k; pc += kKC) {
    const std::size_t kc = std::min(kKC, k - pc);
    for (std::size_t jc = 0; jc < n; jc += kNC) {
      const std::size_t nc = std::min(kNC, n - jc);
      for (std::size_t i = row_lo; i < row_hi; i += kMR) {
        const std::size_t mr = std::min(kMR, row_hi - i);
        const float* ai = a + i * k + pc;
        for (std::size_t j = 0; j < nc; j += kNR) {
          const std::size_t nr = std::min(kNR, nc - j);
          const float* bj = b + pc * n + jc + j;
          float* cij = c + i * n + jc + j;
          if (mr == kMR && nr == kNR)
            micro_full(kc, alpha, ai, k, bj, n, cij, n);
          else
            micro_edge(mr, nr, kc, alpha, ai, k, bj, n, cij, n);
        }
      }
    }
  }
}

}  // namespace

void gemm(std::size_t m, std::size_t k, std::size_t n, float alpha,
          const float* a, const float* b, float beta, float* c) {
  // Parallelise over row blocks only when the work amortises the fork cost.
  const std::size_t flops = 2 * m * k * n;
  auto& pool = util::ThreadPool::current();
  if (flops < (1u << 22) || pool.size() <= 1 || m < 2 * pool.size()) {
    gemm_rows(0, m, k, n, alpha, a, b, beta, c);
    return;
  }
  pool.parallel_for_chunks(0, m, [&](std::size_t lo, std::size_t hi) {
    gemm_rows(lo, hi, k, n, alpha, a, b, beta, c);
  });
}

void gemm_at(std::size_t m, std::size_t k, std::size_t n, float alpha,
             const float* a, const float* b, float beta, float* c) {
  // A^T access is strided; materialise the transpose once so the main loop
  // stays unit-stride. m*k is small relative to the m*k*n multiply.
  thread_local std::vector<float> at;
  if (at.size() < m * k) at.resize(m * k);
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t i = 0; i < m; ++i) at[i * k + p] = a[p * m + i];
  gemm(m, k, n, alpha, at.data(), b, beta, c);
}

namespace {

/// Reusable per-thread transpose scratch: gemm_at/gemm_bt are called per
/// mini-batch from the layers, so a monotonically growing buffer avoids
/// allocator churn on the hot path.
std::vector<float>& transpose_scratch() {
  thread_local std::vector<float> scratch;
  return scratch;
}

/// Cache-blocked out-of-place transpose: dst[j * rows + i] = src[i * cols + j].
void transpose_into(const float* src, std::size_t rows, std::size_t cols,
                    float* dst) noexcept {
  constexpr std::size_t kTile = 32;
  for (std::size_t i0 = 0; i0 < rows; i0 += kTile) {
    const std::size_t i1 = std::min(rows, i0 + kTile);
    for (std::size_t j0 = 0; j0 < cols; j0 += kTile) {
      const std::size_t j1 = std::min(cols, j0 + kTile);
      for (std::size_t i = i0; i < i1; ++i)
        for (std::size_t j = j0; j < j1; ++j)
          dst[j * rows + i] = src[i * cols + j];
    }
  }
}

// The few-row kernels below must stay scalar. GCC would vectorise each
// dot product along p as an in-order reduction (one vector multiply, then
// the adds one at a time), which rounds every product before its add and
// so loses the FMA contraction of the tiled kernels. Scalar, each chain
// contracts exactly as the tiled kernels do: fused where the target has
// FMA, a separate multiply and add where it has not.
#if defined(__GNUC__) && !defined(__clang__)
#define PRIONN_SCALAR_DOTS __attribute__((optimize("no-tree-vectorize")))
#else
#define PRIONN_SCALAR_DOTS
#endif

/// Dot products side by side, one accumulator each, to cover the latency
/// of the adds.
constexpr std::size_t kDots = 8;

/// c[j] += alpha * (a . b[j]) for j < J, where b[j] is the row b + j * ldb
/// and each dot product sums its kc terms from zero in order.
template <std::size_t J>
PRIONN_SCALAR_DOTS inline void dot_block(std::size_t kc, float alpha,
                                         const float* a, const float* b,
                                         std::size_t ldb, float* c) {
  float acc[J] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float ap = a[p];
    for (std::size_t j = 0; j < J; ++j) acc[j] += ap * b[j * ldb + p];
  }
  for (std::size_t j = 0; j < J; ++j) c[j] += alpha * acc[j];
}

/// gemm_bt for few rows: C[i, j] is the dot product of row i of A with row
/// j of B, both contiguous, so B is read in place instead of transposed.
/// Every element takes the tiled path's operations in the same order:
/// scaled by beta, then per k-block of kKC a sum from zero in p order,
/// added in as c += alpha * sum.
PRIONN_SCALAR_DOTS void gemm_bt_dots(std::size_t m, std::size_t k,
                                     std::size_t n, float alpha,
                                     const float* a, const float* b,
                                     float beta, float* c) {
  scale_rows(0, m, n, beta, c);
  for (std::size_t pc = 0; pc < k; pc += kKC) {
    const std::size_t kc = std::min(kKC, k - pc);
    for (std::size_t i = 0; i < m; ++i) {
      const float* ai = a + i * k + pc;
      float* ci = c + i * n;
      std::size_t j = 0;
      for (; j + kDots <= n; j += kDots)
        dot_block<kDots>(kc, alpha, ai, b + j * k + pc, k, ci + j);
      for (; j < n; ++j)
        dot_block<1>(kc, alpha, ai, b + j * k + pc, k, ci + j);
    }
  }
}

#undef PRIONN_SCALAR_DOTS

}  // namespace

void gemm_bt(std::size_t m, std::size_t k, std::size_t n, float alpha,
             const float* a, const float* b, float beta, float* c) {
  // Fewer rows than one register tile: the dot products read B in place,
  // where the transpose below would cost more than the multiply itself.
  if (m < kMR) {
    gemm_bt_dots(m, k, n, alpha, a, b, beta, c);
    return;
  }
  // Materialise B (stored n x k) as (k x n) once and reuse the tiled GEMM:
  // the transpose is O(k n) against the O(m k n) multiply and the scratch
  // is recycled across calls.
  auto& bt = transpose_scratch();
  if (bt.size() < k * n) bt.resize(k * n);
  transpose_into(b, n, k, bt.data());
  gemm(m, k, n, alpha, a, bt.data(), beta, c);
}

}  // namespace prionn::tensor
