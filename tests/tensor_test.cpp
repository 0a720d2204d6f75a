// Unit tests for the tensor substrate: storage, GEMM against a naive
// reference, element-wise ops, convolution geometry, and the 1-D
// im2col/col2im lowering (including the adjoint property that backs
// Conv1d backprop).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace t = prionn::tensor;

// -------------------------------------------------------------- Tensor ---

TEST(Tensor, ShapeSize) {
  EXPECT_EQ(t::shape_size({2, 3, 4}), 24u);
  EXPECT_EQ(t::shape_size({}), 0u);
  EXPECT_EQ(t::shape_size({7}), 7u);
}

TEST(Tensor, ZeroInitialised) {
  t::Tensor x({3, 4});
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], 0.0f);
  EXPECT_EQ(x.rank(), 2u);
  EXPECT_EQ(x.dim(0), 3u);
}

TEST(Tensor, FillConstructor) {
  t::Tensor x({2, 2}, 3.5f);
  EXPECT_EQ(x.at(1, 1), 3.5f);
}

TEST(Tensor, DataSizeMismatchThrows) {
  EXPECT_THROW(t::Tensor({2, 2}, std::vector<float>{1, 2, 3}),
               std::invalid_argument);
}

TEST(Tensor, MultiIndexAccess) {
  t::Tensor x({2, 3, 4});
  x.at(1, 2, 3) = 9.0f;
  EXPECT_EQ(x[1 * 12 + 2 * 4 + 3], 9.0f);
  t::Tensor y({2, 2, 2, 2});
  y.at(1, 0, 1, 0) = 5.0f;
  EXPECT_EQ(y[8 + 2], 5.0f);
}

TEST(Tensor, ReshapePreservesData) {
  t::Tensor x({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  x.reshape({3, 2});
  EXPECT_EQ(x.at(2, 1), 6.0f);
  EXPECT_THROW(x.reshape({4, 2}), std::invalid_argument);
}

TEST(Tensor, RowExtraction) {
  t::Tensor x({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const auto r = x.row(1);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], 4.0f);
  EXPECT_EQ(r[2], 6.0f);
}

TEST(Tensor, Arithmetic) {
  t::Tensor a({3}, std::vector<float>{1, 2, 3});
  t::Tensor b({3}, std::vector<float>{10, 20, 30});
  a += b;
  EXPECT_EQ(a[2], 33.0f);
  a -= b;
  EXPECT_EQ(a[2], 3.0f);
  a *= 2.0f;
  EXPECT_EQ(a[0], 2.0f);
  a.axpy(0.5f, b);
  EXPECT_EQ(a[1], 14.0f);
}

TEST(Tensor, ArithmeticShapeMismatchThrows) {
  t::Tensor a({3}), b({4});
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
  EXPECT_THROW(a.axpy(1.0f, b), std::invalid_argument);
}

TEST(Tensor, SaveLoadRoundTrip) {
  t::Tensor x({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  std::stringstream ss;
  x.save(ss);
  const auto y = t::Tensor::load(ss);
  EXPECT_EQ(y.shape(), x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], y[i]);
}

TEST(Tensor, LoadRejectsGarbage) {
  std::stringstream ss("not a tensor");
  EXPECT_THROW(t::Tensor::load(ss), std::runtime_error);
}

// ---------------------------------------------------------------- GEMM ---

namespace {

void naive_gemm(std::size_t m, std::size_t k, std::size_t n, float alpha,
                const float* a, const float* b, float beta, float* c) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c[i * n + j] = alpha * acc + beta * c[i * n + j];
    }
}

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  prionn::util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

}  // namespace

struct GemmShape {
  std::size_t m, k, n;
};

class GemmVsNaive : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmVsNaive, MatchesReference) {
  const auto [m, k, n] = GetParam();
  const auto a = random_vec(m * k, 1);
  const auto b = random_vec(k * n, 2);
  auto c_fast = random_vec(m * n, 3);
  auto c_ref = c_fast;
  t::gemm(m, k, n, 0.5f, a.data(), b.data(), 0.25f, c_fast.data());
  naive_gemm(m, k, n, 0.5f, a.data(), b.data(), 0.25f, c_ref.data());
  for (std::size_t i = 0; i < c_fast.size(); ++i)
    ASSERT_NEAR(c_fast[i], c_ref[i], 1e-3f) << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmVsNaive,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{4, 36, 64},
                      GemmShape{5, 7, 33},   // edge tiles in every direction
                      GemmShape{16, 72, 100}, GemmShape{33, 257, 65},
                      GemmShape{64, 300, 512}, GemmShape{3, 1000, 31}));

TEST(Gemm, BetaZeroOverwritesNanSafely) {
  // beta == 0 must ignore prior contents entirely.
  std::vector<float> a = {1.0f}, b = {2.0f};
  std::vector<float> c = {std::nanf("")};
  t::gemm(1, 1, 1, 1.0f, a.data(), b.data(), 0.0f, c.data());
  EXPECT_FLOAT_EQ(c[0], 2.0f);
}

class GemmTransposed : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmTransposed, AtMatchesReference) {
  const auto [m, k, n] = GetParam();
  const auto at = random_vec(k * m, 4);  // stored k x m
  const auto b = random_vec(k * n, 5);
  std::vector<float> c_fast(m * n, 0.0f), c_ref(m * n, 0.0f);
  // Reference: transpose manually.
  std::vector<float> a(m * k);
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t i = 0; i < m; ++i) a[i * k + p] = at[p * m + i];
  t::gemm_at(m, k, n, 1.0f, at.data(), b.data(), 0.0f, c_fast.data());
  naive_gemm(m, k, n, 1.0f, a.data(), b.data(), 0.0f, c_ref.data());
  for (std::size_t i = 0; i < c_fast.size(); ++i)
    ASSERT_NEAR(c_fast[i], c_ref[i], 1e-3f);
}

TEST_P(GemmTransposed, BtMatchesReference) {
  const auto [m, k, n] = GetParam();
  const auto a = random_vec(m * k, 6);
  const auto bt = random_vec(n * k, 7);  // stored n x k
  std::vector<float> c_fast(m * n, 1.0f), c_ref(m * n, 1.0f);
  std::vector<float> b(k * n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t p = 0; p < k; ++p) b[p * n + j] = bt[j * k + p];
  t::gemm_bt(m, k, n, 1.0f, a.data(), bt.data(), 1.0f, c_fast.data());
  naive_gemm(m, k, n, 1.0f, a.data(), b.data(), 1.0f, c_ref.data());
  for (std::size_t i = 0; i < c_fast.size(); ++i)
    ASSERT_NEAR(c_fast[i], c_ref[i], 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmTransposed,
                         ::testing::Values(GemmShape{3, 5, 7},
                                           GemmShape{16, 33, 65},
                                           GemmShape{37, 128, 41}));

// Below four rows gemm_bt computes dot products against B's rows instead
// of transposing B; every output must keep the bits of the tiled path, at
// each k-block boundary and with either FMA contraction setting.
TEST(Gemm, FewRowBtMatchesRowsOfFullCall) {
  constexpr std::size_t kFull = 32;
  const std::size_t ks[] = {1, 64, 96, 255, 256, 257, 1152};
  const std::size_t ns[] = {1, 7, 13, 33, 44, 100, 960, 965};
  const std::pair<float, float> scales[] = {{1.0f, 0.0f}, {0.7f, 1.0f},
                                            {1.0f, 0.5f}};
  for (const std::size_t k : ks) {
    for (const std::size_t n : ns) {
      const auto a = random_vec(kFull * k, 31);
      const auto bt = random_vec(n * k, 32);  // stored n x k
      const auto c0 = random_vec(kFull * n, 33);
      for (const auto& [alpha, beta] : scales) {
        auto full = c0;
        t::gemm_bt(kFull, k, n, alpha, a.data(), bt.data(), beta,
                   full.data());
        for (std::size_t m = 1; m < 4; ++m) {
          for (const std::size_t r : {std::size_t{0}, kFull - m}) {
            std::vector<float> few(c0.begin() + r * n,
                                   c0.begin() + (r + m) * n);
            t::gemm_bt(m, k, n, alpha, a.data() + r * k, bt.data(), beta,
                       few.data());
            ASSERT_EQ(std::memcmp(few.data(), full.data() + r * n,
                                  m * n * sizeof(float)),
                      0)
                << "m=" << m << " rows from " << r << " k=" << k
                << " n=" << n << " alpha=" << alpha << " beta=" << beta;
          }
        }
      }
    }
  }
}

// ----------------------------------------------------------------- Ops ---

TEST(Ops, Argmax) {
  const std::vector<float> xs = {1, 5, 3, 5};
  EXPECT_EQ(t::argmax(xs), 1u);  // first of the ties
}

TEST(Ops, SoftmaxSumsToOne) {
  std::vector<float> xs = {1, 2, 3};
  t::softmax_inplace(xs);
  EXPECT_NEAR(xs[0] + xs[1] + xs[2], 1.0f, 1e-6f);
  EXPECT_GT(xs[2], xs[1]);
}

TEST(Ops, SoftmaxNumericallyStable) {
  std::vector<float> xs = {1000.0f, 1000.0f};
  t::softmax_inplace(xs);
  EXPECT_NEAR(xs[0], 0.5f, 1e-6f);
  std::vector<float> ys = {-1000.0f, 0.0f};
  t::softmax_inplace(ys);
  EXPECT_NEAR(ys[1], 1.0f, 1e-6f);
}

TEST(Ops, SoftmaxRows) {
  t::Tensor x({2, 2}, std::vector<float>{0, 0, 10, 0});
  t::softmax_rows_inplace(x);
  EXPECT_NEAR(x.at(0, 0), 0.5f, 1e-6f);
  EXPECT_GT(x.at(1, 0), 0.99f);
}

// -------------------------------------------------------------- im2col ---

TEST(Im2col1d, AdjointIdentity) {
  t::Conv1dGeom g;
  g.channels = 3;
  g.length = 17;
  g.kernel = 5;
  g.stride = 2;
  g.pad = 2;
  const std::size_t signal_size = g.channels * g.length;
  const std::size_t cols_size = g.patch_rows() * g.patch_cols();
  const auto x = random_vec(signal_size, 14);
  const auto y = random_vec(cols_size, 15);
  std::vector<float> ix(cols_size);
  t::im2col_1d(g, x.data(), ix.data());
  std::vector<float> cy(signal_size, 0.0f);
  t::col2im_1d(g, y.data(), cy.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cols_size; ++i)
    lhs += static_cast<double>(ix[i]) * y[i];
  for (std::size_t i = 0; i < signal_size; ++i)
    rhs += static_cast<double>(x[i]) * cy[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2col1d, GeometryArithmetic) {
  t::Conv1dGeom g;
  g.channels = 2;
  g.length = 10;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  EXPECT_EQ(g.out_len(), 10u);
  EXPECT_EQ(g.patch_rows(), 6u);
  EXPECT_EQ(g.patch_cols(), 10u);
}

TEST(Im2col, GeometryArithmetic2d) {
  t::Conv2dGeom g;
  g.channels = 4;
  g.height = 64;
  g.width = 64;
  g.kernel_h = g.kernel_w = 3;
  g.pad_h = g.pad_w = 1;
  EXPECT_EQ(g.out_h(), 64u);
  EXPECT_EQ(g.out_w(), 64u);
  EXPECT_EQ(g.patch_rows(), 36u);
  EXPECT_EQ(g.patch_cols(), 4096u);
}
