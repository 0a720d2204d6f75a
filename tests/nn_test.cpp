// Unit tests for the NN substrate: finite-difference gradient checks for
// every layer, Conv2d against plain reference loops, loss correctness,
// optimiser behaviour, end-to-end learning on a tiny task, and
// serialisation round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/model_zoo.hpp"
#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/loss.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "nn/pool.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace nn = prionn::nn;
using prionn::tensor::Tensor;

namespace {

Tensor random_tensor(prionn::tensor::Shape shape, std::uint64_t seed) {
  prionn::util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

/// Scalar objective: sum of squares of the layer output / 2 — its gradient
/// w.r.t. the output is simply the output itself.
double objective(nn::Layer& layer, const Tensor& input) {
  const Tensor out = layer.forward(input, /*training=*/false);
  double acc = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i)
    acc += 0.5 * static_cast<double>(out[i]) * out[i];
  return acc;
}

/// Finite-difference check of both input and parameter gradients.
void check_gradients(nn::Layer& layer, Tensor input, double tolerance) {
  // Analytic gradients: backward reads what a training forward keeps. No
  // layer checked here has dropout, so the output is the inference one.
  layer.zero_gradients();
  const Tensor out = layer.forward(input, /*training=*/true);
  const Tensor grad_in = layer.backward(out);  // dObj/dOut == out

  constexpr float kEps = 1e-2f;
  // Input gradient: spot-check a spread of coordinates.
  for (std::size_t i = 0; i < input.size();
       i += std::max<std::size_t>(1, input.size() / 17)) {
    const float saved = input[i];
    input[i] = saved + kEps;
    const double up = objective(layer, input);
    input[i] = saved - kEps;
    const double down = objective(layer, input);
    input[i] = saved;
    const double numeric = (up - down) / (2.0 * kEps);
    EXPECT_NEAR(grad_in[i], numeric, tolerance)
        << "input gradient at " << i;
  }
  // Parameter gradients.
  const auto params = layer.parameters();
  const auto grads = layer.gradients();
  for (std::size_t p = 0; p < params.size(); ++p) {
    Tensor& w = *params[p];
    const Tensor& g = *grads[p];
    for (std::size_t i = 0; i < w.size();
         i += std::max<std::size_t>(1, w.size() / 13)) {
      const float saved = w[i];
      w[i] = saved + kEps;
      const double up = objective(layer, input);
      w[i] = saved - kEps;
      const double down = objective(layer, input);
      w[i] = saved;
      const double numeric = (up - down) / (2.0 * kEps);
      EXPECT_NEAR(g[i], numeric, tolerance)
          << "param " << p << " gradient at " << i;
    }
  }
}

}  // namespace

// ---------------------------------------------------- gradient checks ---

TEST(GradCheck, Dense) {
  prionn::util::Rng rng(1);
  nn::Dense layer(6, 4, rng);
  check_gradients(layer, random_tensor({3, 6}, 2), 2e-2);
}

TEST(GradCheck, Conv2d) {
  prionn::util::Rng rng(3);
  nn::Conv2d layer(2, 3, 3, 3, 1, 1, rng);
  check_gradients(layer, random_tensor({2, 2, 5, 5}, 4), 3e-2);
}

TEST(GradCheck, Conv2dStride2NoPad) {
  prionn::util::Rng rng(5);
  nn::Conv2d layer(1, 2, 3, 3, 2, 0, rng);
  check_gradients(layer, random_tensor({2, 1, 7, 7}, 6), 3e-2);
}

TEST(GradCheck, Conv1d) {
  prionn::util::Rng rng(7);
  nn::Conv1d layer(2, 3, 5, 1, 2, rng);
  check_gradients(layer, random_tensor({2, 2, 9}, 8), 3e-2);
}

TEST(GradCheck, Relu) {
  nn::Relu layer;
  check_gradients(layer, random_tensor({4, 6}, 9), 1e-2);
}

TEST(GradCheck, MaxPool2d) {
  nn::MaxPool2d layer(2);
  check_gradients(layer, random_tensor({2, 2, 6, 6}, 12), 1e-2);
}

TEST(GradCheck, MaxPool1d) {
  nn::MaxPool1d layer(2);
  check_gradients(layer, random_tensor({2, 2, 8}, 13), 1e-2);
}

TEST(GradCheck, FlattenLayer) {
  nn::Flatten layer;
  check_gradients(layer, random_tensor({3, 2, 4}, 14), 1e-2);
}

// --------------------------------------------------------------- shapes ---

TEST(Shapes, DensePropagation) {
  prionn::util::Rng rng(1);
  nn::Dense layer(8, 3, rng);
  EXPECT_EQ(layer.output_shape({8}), (prionn::tensor::Shape{3}));
  EXPECT_THROW(layer.output_shape({9}), std::invalid_argument);
  EXPECT_THROW(layer.output_shape({2, 4}), std::invalid_argument);
}

TEST(Shapes, Conv2dPropagation) {
  prionn::util::Rng rng(1);
  nn::Conv2d layer(3, 8, 3, 3, 1, 1, rng);
  EXPECT_EQ(layer.output_shape({3, 64, 64}),
            (prionn::tensor::Shape{8, 64, 64}));
  EXPECT_THROW(layer.output_shape({2, 64, 64}), std::invalid_argument);
}

TEST(Shapes, Conv2dStrideShrinks) {
  prionn::util::Rng rng(1);
  nn::Conv2d layer(1, 4, 3, 3, 2, 1, rng);
  EXPECT_EQ(layer.output_shape({1, 9, 9}), (prionn::tensor::Shape{4, 5, 5}));
}

TEST(Shapes, PoolPropagation) {
  nn::MaxPool2d pool(2);
  EXPECT_EQ(pool.output_shape({4, 8, 8}), (prionn::tensor::Shape{4, 4, 4}));
  EXPECT_THROW(pool.output_shape({4, 1, 1}), std::invalid_argument);
  nn::MaxPool1d pool1(4);
  EXPECT_EQ(pool1.output_shape({2, 64}), (prionn::tensor::Shape{2, 16}));
}

TEST(Shapes, FlattenCollapses) {
  nn::Flatten f;
  EXPECT_EQ(f.output_shape({4, 8, 8}), (prionn::tensor::Shape{256}));
}

// ------------------------------------------------------------- conv2d ---

namespace {

struct ConvCase {
  std::size_t in_c, out_c, height, width, kernel_h, kernel_w, stride, pad;
};

// The four Conv2d layers of build_model's fast preset (64 x 64 input),
// then stride 2 without padding, a rectangular 3x5 kernel and a
// single-channel input.
const ConvCase kConvCases[] = {
    {4, 4, 64, 64, 3, 3, 1, 1}, {4, 8, 32, 32, 3, 3, 1, 1},
    {8, 8, 16, 16, 3, 3, 1, 1}, {8, 16, 8, 8, 3, 3, 1, 1},
    {3, 4, 9, 11, 3, 3, 2, 0},  {2, 5, 7, 9, 3, 5, 1, 1},
    {1, 3, 6, 5, 3, 3, 1, 1},
};
const std::span<const ConvCase> kModelConvCases =
    std::span(kConvCases).first(4);

nn::Conv2d make_conv(const ConvCase& k, std::uint64_t seed) {
  return nn::Conv2d(
      random_tensor({k.out_c, k.in_c, k.kernel_h, k.kernel_w}, seed),
      random_tensor({k.out_c}, seed + 1), k.stride, k.pad);
}

/// Input value at padded coordinates (iy, ix) of (sample n, channel c),
/// zero outside the image.
template <typename T>
T padded_at(const Tensor& x, std::size_t n, std::size_t c, std::ptrdiff_t iy,
            std::ptrdiff_t ix) {
  const auto h = static_cast<std::ptrdiff_t>(x.dim(2));
  const auto w = static_cast<std::ptrdiff_t>(x.dim(3));
  if (iy < 0 || iy >= h || ix < 0 || ix >= w) return T(0);
  return static_cast<T>(
      x[((n * x.dim(1) + c) * x.dim(2) + static_cast<std::size_t>(iy)) *
            x.dim(3) +
        static_cast<std::size_t>(ix)]);
}

std::ptrdiff_t tap(std::size_t o, std::size_t k, const ConvCase& g) {
  return static_cast<std::ptrdiff_t>(o * g.stride + k) -
         static_cast<std::ptrdiff_t>(g.pad);
}

/// The plain convolution loop, in float: each output sums its taps in
/// (c, kh, kw) order starting from zero, padding taps included, and adds
/// the bias last.
Tensor naive_forward(const ConvCase& g, const Tensor& w, const Tensor& b,
                     const Tensor& x) {
  const std::size_t oh = (g.height + 2 * g.pad - g.kernel_h) / g.stride + 1;
  const std::size_t ow = (g.width + 2 * g.pad - g.kernel_w) / g.stride + 1;
  Tensor out({x.dim(0), g.out_c, oh, ow});
  std::size_t i = 0;
  for (std::size_t n = 0; n < x.dim(0); ++n)
    for (std::size_t o = 0; o < g.out_c; ++o)
      for (std::size_t oy = 0; oy < oh; ++oy)
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0f;
          std::size_t t = o * g.in_c * g.kernel_h * g.kernel_w;
          for (std::size_t c = 0; c < g.in_c; ++c)
            for (std::size_t kh = 0; kh < g.kernel_h; ++kh)
              for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++t)
                acc += w[t] * padded_at<float>(x, n, c, tap(oy, kh, g),
                                               tap(ox, kw, g));
          out[i++] = acc + b[o];
        }
  return out;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// max |got - want| <= tol * max |want|.
void expect_close(const Tensor& got, const std::vector<double>& want,
                  double tol, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  double scale = 0.0, err = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    scale = std::max(scale, std::abs(want[i]));
    err = std::max(err, std::abs(static_cast<double>(got[i]) - want[i]));
  }
  EXPECT_LE(err, tol * scale) << what << " (scale " << scale << ")";
}

}  // namespace

TEST(Conv2dKernel, ForwardMatchesNaiveLoopBitwise) {
  std::uint64_t seed = 100;
  for (const ConvCase& g : kConvCases)
    for (const std::size_t batch : {1u, 3u}) {
      nn::Conv2d conv = make_conv(g, seed);
      const Tensor x =
          random_tensor({batch, g.in_c, g.height, g.width}, seed + 2);
      seed += 3;
      const Tensor want =
          naive_forward(g, *conv.parameters()[0], *conv.parameters()[1], x);
      EXPECT_TRUE(same_bits(conv.forward(x, false), want))
          << g.in_c << "->" << g.out_c << " " << g.height << "x" << g.width
          << " k" << g.kernel_h << "x" << g.kernel_w << " s" << g.stride
          << " p" << g.pad << " batch " << batch;
    }
}

TEST(Conv2dKernel, SampleOfBatchEqualsSampleAlone) {
  std::uint64_t seed = 200;
  for (const ConvCase& g : kConvCases) {
    nn::Conv2d conv = make_conv(g, seed);
    constexpr std::size_t kBatch = 5;
    const Tensor x =
        random_tensor({kBatch, g.in_c, g.height, g.width}, seed + 2);
    seed += 3;
    const Tensor all = conv.forward(x, false);
    const std::size_t in_size = x.size() / kBatch;
    const std::size_t out_size = all.size() / kBatch;
    for (std::size_t n = 0; n < kBatch; ++n) {
      Tensor one({1, g.in_c, g.height, g.width});
      std::copy_n(x.data() + n * in_size, in_size, one.data());
      const Tensor alone = conv.forward(one, false);
      ASSERT_EQ(alone.size(), out_size);
      EXPECT_EQ(std::memcmp(alone.data(), all.data() + n * out_size,
                            out_size * sizeof(float)),
                0)
          << "sample " << n << " of " << g.in_c << "->" << g.out_c << " "
          << g.height << "x" << g.width;
    }
  }
}

TEST(Conv2dKernel, GradientsMatchDoublePrecisionReference) {
  constexpr std::size_t kBatch = 32;
  std::uint64_t seed = 300;
  for (const ConvCase& g : kModelConvCases) {
    nn::Conv2d conv = make_conv(g, seed);
    const Tensor x = random_tensor({kBatch, g.in_c, g.height, g.width},
                                   seed + 2);
    const Tensor y = conv.forward(x, true);
    const Tensor dy = random_tensor(y.shape(), seed + 3);
    seed += 4;
    conv.zero_gradients();
    const Tensor dx = conv.backward(dy);

    const Tensor& w = *conv.parameters()[0];
    std::vector<double> want_dx(x.size(), 0.0), want_dw(w.size(), 0.0),
        want_db(g.out_c, 0.0);
    const std::size_t oh = y.dim(2), ow = y.dim(3);
    std::size_t i = 0;
    for (std::size_t n = 0; n < kBatch; ++n)
      for (std::size_t o = 0; o < g.out_c; ++o)
        for (std::size_t oy = 0; oy < oh; ++oy)
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const double d = dy[i++];
            want_db[o] += d;
            std::size_t t = o * g.in_c * g.kernel_h * g.kernel_w;
            for (std::size_t c = 0; c < g.in_c; ++c)
              for (std::size_t kh = 0; kh < g.kernel_h; ++kh)
                for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++t) {
                  const std::ptrdiff_t iy = tap(oy, kh, g),
                                       ix = tap(ox, kw, g);
                  want_dw[t] += d * padded_at<double>(x, n, c, iy, ix);
                  if (iy < 0 || ix < 0 ||
                      iy >= static_cast<std::ptrdiff_t>(g.height) ||
                      ix >= static_cast<std::ptrdiff_t>(g.width))
                    continue;
                  want_dx[((n * g.in_c + c) * g.height +
                           static_cast<std::size_t>(iy)) *
                              g.width +
                          static_cast<std::size_t>(ix)] += d * w[t];
                }
          }
    SCOPED_TRACE(std::to_string(g.in_c) + "->" + std::to_string(g.out_c) +
                 " " + std::to_string(g.height) + "x" +
                 std::to_string(g.width));
    expect_close(dx, want_dx, 1e-4, "dX");
    expect_close(*conv.gradients()[0], want_dw, 1e-4, "dW");
    expect_close(*conv.gradients()[1], want_db, 1e-4, "db");
  }
}

TEST(Conv2dKernel, IdentityKernelNoPad) {
  // 1x1 kernel of weight 1, zero bias: the output is the input.
  nn::Conv2d conv(Tensor({1, 1, 1, 1}, 1.0f), Tensor({1}), 1, 0);
  const Tensor x({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_TRUE(same_bits(conv.forward(x, false), x));
}

TEST(Conv2dKernel, KnownSmallCase) {
  // 2x2 image, 2x2 kernel, stride 1, no pad: one output pixel covering
  // the whole image.
  nn::Conv2d conv(Tensor({1, 1, 2, 2}, {1, 10, 100, 1000}), Tensor({1}, 0.5f),
                  1, 0);
  const Tensor out = conv.forward(Tensor({1, 1, 2, 2}, {1, 2, 3, 4}), false);
  ASSERT_EQ(out.shape(), (prionn::tensor::Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(out[0], 4321.5f);
}

TEST(Conv2dKernel, PaddingYieldsZeros) {
  // 1x1 image, 3x3 kernel, pad 1: only the centre tap sees the pixel.
  Tensor w({1, 1, 3, 3}, 1.0f);
  w[4] = 2.0f;
  nn::Conv2d conv(std::move(w), Tensor({1}), 1, 1);
  const Tensor out = conv.forward(Tensor({1, 1, 1, 1}, 7.0f), false);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FLOAT_EQ(out[0], 14.0f);
}

struct ConvGeomCase {
  std::size_t channels, height, width, kernel, stride, pad;
};

class Conv2dAdjoint : public ::testing::TestWithParam<ConvGeomCase> {};

// With zero bias, <forward(x), y> == <x, backward(y)>: the input gradient
// is the adjoint of the convolution, which is what backprop relies on.
TEST_P(Conv2dAdjoint, DotProductIdentity) {
  const auto p = GetParam();
  constexpr std::size_t kOut = 2;
  nn::Conv2d conv(random_tensor({kOut, p.channels, p.kernel, p.kernel}, 11),
                  Tensor({kOut}), p.stride, p.pad);
  const Tensor x = random_tensor({2, p.channels, p.height, p.width}, 12);
  const Tensor fx = conv.forward(x, /*training=*/true);
  const Tensor y = random_tensor(fx.shape(), 13);
  const Tensor by = conv.backward(y);

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < fx.size(); ++i)
    lhs += static_cast<double>(fx[i]) * y[i];
  for (std::size_t i = 0; i < x.size(); ++i)
    rhs += static_cast<double>(x[i]) * by[i];
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::abs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Conv2dAdjoint,
    ::testing::Values(ConvGeomCase{1, 4, 4, 3, 1, 1},
                      ConvGeomCase{3, 8, 8, 3, 1, 1},
                      ConvGeomCase{2, 6, 5, 3, 2, 0},
                      ConvGeomCase{4, 7, 7, 5, 1, 2},
                      ConvGeomCase{1, 16, 16, 3, 1, 0}));

// ---------------------------------------------------------------- loss ---

TEST(Loss, CrossEntropyKnownValue) {
  // Two classes, logits {0, 0}: p = 0.5, loss = ln 2.
  Tensor logits({1, 2});
  const std::vector<std::uint32_t> labels = {0};
  const auto r = nn::softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(r.value, std::log(2.0), 1e-6);
  // Gradient: p - onehot = {0.5 - 1, 0.5}.
  EXPECT_NEAR(r.grad[0], -0.5f, 1e-6f);
  EXPECT_NEAR(r.grad[1], 0.5f, 1e-6f);
}

TEST(Loss, CrossEntropyGradRowsSumToZero) {
  const Tensor logits = random_tensor({5, 7}, 21);
  const std::vector<std::uint32_t> labels = {0, 1, 2, 3, 4};
  const auto r = nn::softmax_cross_entropy(logits, labels);
  for (std::size_t n = 0; n < 5; ++n) {
    float row = 0.0f;
    for (std::size_t c = 0; c < 7; ++c) row += r.grad.at(n, c);
    EXPECT_NEAR(row, 0.0f, 1e-5f);
  }
}

TEST(Loss, CrossEntropyRejectsBadLabels) {
  Tensor logits({2, 3});
  const std::vector<std::uint32_t> bad = {0, 3};
  EXPECT_THROW(nn::softmax_cross_entropy(logits, bad), std::out_of_range);
  const std::vector<std::uint32_t> mismatch = {0};
  EXPECT_THROW(nn::softmax_cross_entropy(logits, mismatch),
               std::invalid_argument);
}

// ------------------------------------------------------------ dropout ---

TEST(Dropout, InferenceIsIdentity) {
  nn::Dropout layer(0.5);
  const Tensor x = random_tensor({4, 8}, 22);
  const Tensor y = layer.forward(x, /*training=*/false);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], y[i]);
}

TEST(Dropout, TrainingZeroesAndRescales) {
  nn::Dropout layer(0.5);
  Tensor x({1, 10000}, 1.0f);
  const Tensor y = layer.forward(x, /*training=*/true);
  std::size_t zeros = 0;
  double total = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0f)
      ++zeros;
    else
      EXPECT_NEAR(y[i], 2.0f, 1e-6f);  // inverted scaling 1/(1-0.5)
    total += y[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.size(), 0.5, 0.05);
  EXPECT_NEAR(total / y.size(), 1.0, 0.1);  // expectation preserved
}

TEST(Dropout, BackwardUsesSameMask) {
  nn::Dropout layer(0.3);
  Tensor x({1, 100}, 1.0f);
  const Tensor y = layer.forward(x, /*training=*/true);
  Tensor g({1, 100}, 1.0f);
  const Tensor gx = layer.backward(g);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(gx[i], y[i]);
}

TEST(Dropout, RejectsInvalidRate) {
  EXPECT_THROW(nn::Dropout(-0.1), std::invalid_argument);
  EXPECT_THROW(nn::Dropout(1.0), std::invalid_argument);
}

// ---------------------------------------------------------- optimisers ---

TEST(Optimizer, AdamFirstStepMagnitude) {
  // With bias correction, the first Adam step is ~lr regardless of scale.
  Tensor w({1}, std::vector<float>{0.0f});
  Tensor g({1}, std::vector<float>{123.0f});
  nn::Adam opt(0.01);
  opt.step({&w}, {&g});
  EXPECT_NEAR(w[0], -0.01f, 1e-4f);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  // Minimise (w - 3)^2.
  Tensor w({1}, std::vector<float>{0.0f});
  nn::Adam opt(0.1);
  for (int i = 0; i < 500; ++i) {
    Tensor g({1}, std::vector<float>{2.0f * (w[0] - 3.0f)});
    opt.step({&w}, {&g});
  }
  EXPECT_NEAR(w[0], 3.0f, 0.05f);
}

TEST(Optimizer, RejectsNonPositiveLr) {
  EXPECT_THROW(nn::Adam(0.0), std::invalid_argument);
  EXPECT_THROW(nn::Adam(-1.0), std::invalid_argument);
}

TEST(Optimizer, MismatchedParamsThrow) {
  Tensor w({1});
  nn::Adam opt(0.1);
  EXPECT_THROW(opt.step({&w}, {}), std::invalid_argument);
}

// ------------------------------------------------------------- network ---

namespace {

/// Tiny 2-class spiral-ish task: class = (x0 * x1 > 0).
void make_xor_data(Tensor& x, std::vector<std::uint32_t>& y, std::size_t n,
                   std::uint64_t seed) {
  prionn::util::Rng rng(seed);
  x = Tensor({n, 2});
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-1.0, 1.0), b = rng.uniform(-1.0, 1.0);
    x.at(i, 0) = static_cast<float>(a);
    x.at(i, 1) = static_cast<float>(b);
    y[i] = (a * b > 0.0) ? 1 : 0;
  }
}

/// Fraction of samples whose predicted class matches the label.
double accuracy(nn::Network& net, const Tensor& x,
                std::span<const std::uint32_t> y) {
  const auto top1 = net.predict_top1(x);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < top1.size(); ++i)
    if (top1[i].cls == y[i]) ++hits;
  return static_cast<double>(hits) / static_cast<double>(top1.size());
}

nn::Network make_mlp(std::uint64_t seed) {
  prionn::util::Rng rng(seed);
  nn::Network net;
  net.emplace<nn::Dense>(2, 16, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::Dense>(16, 2, rng);
  return net;
}

}  // namespace

TEST(Network, LearnsXor) {
  Tensor x;
  std::vector<std::uint32_t> y;
  make_xor_data(x, y, 256, 31);
  auto net = make_mlp(32);
  nn::Adam opt(0.01);
  nn::FitOptions fit;
  fit.epochs = 60;
  fit.batch_size = 32;
  const auto report = net.fit(x, y, opt, fit);
  EXPECT_LT(report.final_loss(), report.epoch_loss.front());
  EXPECT_GT(accuracy(net, x, y), 0.9);
}

TEST(Network, WarmStartImproves) {
  Tensor x;
  std::vector<std::uint32_t> y;
  make_xor_data(x, y, 256, 33);
  auto net = make_mlp(34);
  nn::Adam opt(0.01);
  nn::FitOptions fit;
  fit.epochs = 10;
  net.fit(x, y, opt, fit);
  const double acc1 = accuracy(net, x, y);
  net.fit(x, y, opt, fit);  // continue training — warm start
  net.fit(x, y, opt, fit);
  const double acc2 = accuracy(net, x, y);
  EXPECT_GE(acc2, acc1 - 0.02);  // monotone up to batch noise
  EXPECT_GT(acc2, 0.85);
}

TEST(Network, PredictTop1MatchesSoftmaxOfLogits) {
  prionn::util::Rng rng(35);
  nn::Network net;
  net.emplace<nn::Dense>(2, 16, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::Dense>(16, 5, rng);
  const Tensor x = random_tensor({8, 2}, 36);
  const Tensor logits = net.forward(x, false);
  const auto top1 = net.predict_top1(x);
  ASSERT_EQ(top1.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    // The class is the first maximal logit.
    std::size_t best = 0;
    for (std::size_t c = 1; c < 5; ++c)
      if (logits.at(i, c) > logits.at(i, best)) best = c;
    EXPECT_EQ(top1[i].cls, best) << "sample " << i;
    // The probability is that class's softmax, in double precision.
    double denom = 0.0;
    for (std::size_t c = 0; c < 5; ++c)
      denom += std::exp(static_cast<double>(logits.at(i, c)));
    const double expected =
        std::exp(static_cast<double>(logits.at(i, best))) / denom;
    EXPECT_NEAR(top1[i].probability, expected, 1e-12) << "sample " << i;
    EXPECT_GE(top1[i].probability, 0.2);  // at least 1 / classes
    EXPECT_LE(top1[i].probability, 1.0);
  }
}

TEST(Network, OutputShapeComposition) {
  prionn::util::Rng rng(37);
  nn::Network net;
  net.emplace<nn::Conv2d>(1, 4, 3, 3, 1, 1, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::MaxPool2d>(2);
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(4 * 8 * 8, 10, rng);
  EXPECT_EQ(net.output_shape({1, 16, 16}), (prionn::tensor::Shape{10}));
  EXPECT_GT(net.parameter_count(), 0u);
}

TEST(Network, SaveLoadRoundTripPreservesPredictions) {
  Tensor x;
  std::vector<std::uint32_t> y;
  make_xor_data(x, y, 64, 38);
  auto net = make_mlp(39);
  nn::Adam opt(0.01);
  nn::FitOptions fit;
  fit.epochs = 5;
  net.fit(x, y, opt, fit);

  std::stringstream ss;
  net.save(ss);
  auto loaded = nn::Network::load(ss);
  const auto before = net.predict_top1(x);
  const auto after = loaded.predict_top1(x);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].cls, after[i].cls);
    EXPECT_EQ(before[i].probability, after[i].probability);
  }
}

TEST(Network, SaveLoadAllLayerKinds) {
  prionn::util::Rng rng(40);
  nn::Network net;
  net.emplace<nn::Conv2d>(1, 2, 3, 3, 1, 1, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::MaxPool2d>(2);
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dropout>(0.2);
  net.emplace<nn::Dense>(2 * 4 * 4, 6, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::Dense>(6, 3, rng);
  net.emplace<nn::Relu>();

  std::stringstream ss;
  net.save(ss);
  auto loaded = nn::Network::load(ss);
  EXPECT_EQ(loaded.depth(), net.depth());
  const Tensor x = random_tensor({2, 1, 8, 8}, 41);
  const Tensor a = net.forward(x, false);
  const Tensor b = loaded.forward(x, false);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Network, LoadRejectsBadMagic) {
  std::stringstream ss("garbage data here");
  EXPECT_THROW(nn::Network::load(ss), std::runtime_error);
}

TEST(Network, Conv1dNetworkTrains) {
  // Signal classification: class 1 if the mean of the signal is positive.
  prionn::util::Rng rng(42);
  const std::size_t n = 128;
  Tensor x({n, 1, 16});
  std::vector<std::uint32_t> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double offset = rng.uniform(-1.0, 1.0);
    for (std::size_t j = 0; j < 16; ++j)
      x.at(i, 0, j) = static_cast<float>(offset + 0.1 * rng.normal());
    y[i] = offset > 0.0 ? 1 : 0;
  }
  nn::Network net;
  net.emplace<nn::Conv1d>(1, 4, 3, 1, 1, rng);
  net.emplace<nn::Relu>();
  net.emplace<nn::MaxPool1d>(4);
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(16, 2, rng);
  nn::Adam opt(0.01);
  nn::FitOptions fit;
  fit.epochs = 30;
  net.fit(x, y, opt, fit);
  EXPECT_GT(accuracy(net, x, y), 0.9);
}

// ----------------------------------------------------- inference forward ---

namespace {

/// One layer of a kind and a two-sample batch it accepts.
struct KindCase {
  std::unique_ptr<nn::Layer> layer;
  Tensor input;
};

std::vector<KindCase> one_layer_of_each_kind() {
  prionn::util::Rng rng(61);
  std::vector<KindCase> cases;
  const auto add = [&](std::unique_ptr<nn::Layer> l,
                       prionn::tensor::Shape shape) {
    cases.push_back({std::move(l), random_tensor(std::move(shape), 62)});
  };
  add(std::make_unique<nn::Dense>(6, 4, rng), {2, 6});
  add(std::make_unique<nn::Conv2d>(2, 3, 3, 3, 1, 1, rng), {2, 2, 5, 5});
  add(std::make_unique<nn::Conv1d>(2, 3, 3, 1, 1, rng), {2, 2, 9});
  add(std::make_unique<nn::Relu>(), {2, 6});
  add(std::make_unique<nn::MaxPool2d>(2), {2, 2, 4, 4});
  add(std::make_unique<nn::MaxPool1d>(2), {2, 2, 8});
  add(std::make_unique<nn::Flatten>(), {2, 2, 3});
  add(std::make_unique<nn::Dropout>(0.5), {2, 6});
  return cases;
}

/// The first `n` samples of a batch.
Tensor first_samples(const Tensor& batch, std::size_t n) {
  prionn::tensor::Shape shape = batch.shape();
  const std::size_t per_sample = batch.size() / shape[0];
  shape[0] = n;
  return Tensor(shape, std::vector<float>(batch.data(),
                                          batch.data() + n * per_sample));
}

}  // namespace

// An inference forward keeps no backward state, so a backward after it
// must fail loudly instead of reading missing or stale state.
TEST(Layer, BackwardAfterInferenceForwardThrows) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (KindCase& c : one_layer_of_each_kind()) {
    nn::Layer& layer = *c.layer;
    SCOPED_TRACE(layer.kind());
    // Control: a training forward leaves what backward reads.
    const Tensor y = layer.forward(c.input, /*training=*/true);
    const Tensor gx = layer.backward(y);
    EXPECT_TRUE(gx.same_shape(c.input));
    // An inference forward alone.
    const Tensor one = first_samples(c.input, 1);
    const Tensor y1 = layer.forward(one, /*training=*/false);
    EXPECT_DEATH(layer.backward(y1), "backward: needs");
    // Stale: a training forward, then an inference forward, then the
    // backward of the training batch.
    layer.forward(c.input, /*training=*/true);
    layer.forward(one, /*training=*/false);
    EXPECT_DEATH(layer.backward(y), "backward: needs");
  }
}

// The serving models, dropout off: an inference forward at batch 1, 3 and
// 32 gives bitwise the rows of a batch-32 training forward, whichever
// kernel (few-row dot products or tiled GEMM) the batch size selects.
TEST(Network, InferenceForwardMatchesTrainingForwardBitwise) {
  using prionn::core::ModelKind;
  for (const ModelKind kind : {ModelKind::kCnn2d, ModelKind::kCnn1d,
                               ModelKind::kFullyConnected}) {
    prionn::core::ModelConfig cfg;
    cfg.kind = kind;
    cfg.dropout = 0.0;
    auto net = prionn::core::build_model(cfg);
    const prionn::tensor::Shape batch =
        kind == ModelKind::kCnn1d
            ? prionn::tensor::Shape{32, cfg.channels, cfg.rows * cfg.cols}
            : prionn::tensor::Shape{32, cfg.channels, cfg.rows, cfg.cols};
    const Tensor x = random_tensor(batch, 63);
    const Tensor want = net.forward(x, /*training=*/true);
    for (const std::size_t n : {1u, 3u, 32u}) {
      const Tensor got = net.forward(first_samples(x, n), false);
      EXPECT_TRUE(same_bits(got, first_samples(want, n)))
          << prionn::core::model_name(kind) << " at batch " << n;
    }
  }
}

namespace {

/// The scalar max-pool scan: per output, (ky, kx) order from -inf, a value
/// replaces the best only when greater.
Tensor reference_pool(const Tensor& x, std::size_t window,
                      std::size_t stride) {
  const std::size_t planes = x.dim(0) * x.dim(1);
  const std::size_t h = x.dim(2), w = x.dim(3);
  const std::size_t oh = (h - window) / stride + 1;
  const std::size_t ow = (w - window) / stride + 1;
  Tensor out({x.dim(0), x.dim(1), oh, ow});
  for (std::size_t p = 0, oi = 0; p < planes; ++p)
    for (std::size_t oy = 0; oy < oh; ++oy)
      for (std::size_t ox = 0; ox < ow; ++ox, ++oi) {
        float best = -std::numeric_limits<float>::infinity();
        for (std::size_t ky = 0; ky < window; ++ky)
          for (std::size_t kx = 0; kx < window; ++kx) {
            const float v =
                x[(p * h + oy * stride + ky) * w + ox * stride + kx];
            if (v > best) best = v;
          }
        out[oi] = best;
      }
  return out;
}

}  // namespace

TEST(MaxPool2d, NanAndSignedZeroWindowsKeepTheScalarScan) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Four 2x2 windows, scanned (0,0) (0,1) (1,0) (1,1):
  //   NaN 1 / 2 NaN   -> 2 (NaN never wins), from flat index 8
  //   -0 +0 / +0 +0   -> -0 (+0 is not greater), from index 2
  //   +0 -0 / -0 -0   -> +0, from index 4
  //   all NaN         -> -inf, its first element, index 6
  const Tensor x({1, 1, 2, 8}, std::vector<float>{nan, 1.0f, -0.0f, 0.0f,
                                                  0.0f, -0.0f, nan, nan,
                                                  2.0f, nan, 0.0f, 0.0f,
                                                  -0.0f, -0.0f, nan, nan});
  const float inf = std::numeric_limits<float>::infinity();
  const Tensor want({1, 1, 1, 4}, std::vector<float>{2.0f, -0.0f, 0.0f, -inf});
  for (const bool training : {false, true}) {
    nn::MaxPool2d pool(2);
    EXPECT_TRUE(same_bits(pool.forward(x, training), want)) << training;
  }
  nn::MaxPool2d pool(2);
  pool.forward(x, /*training=*/true);
  const Tensor gx = pool.backward(Tensor({1, 1, 1, 4}, 1.0f));
  for (std::size_t i = 0; i < gx.size(); ++i)
    EXPECT_EQ(gx[i], (i == 8 || i == 2 || i == 4 || i == 6) ? 1.0f : 0.0f)
        << i;

  // Overlapping windows over planes sprinkled with NaN and signed zeros.
  Tensor r = random_tensor({2, 3, 9, 11}, 64);
  for (std::size_t i = 0; i < r.size(); i += 7) r[i] = nan;
  for (std::size_t i = 3; i < r.size(); i += 5) r[i] = (i % 2) ? -0.0f : 0.0f;
  for (const bool training : {false, true}) {
    nn::MaxPool2d overlapping(3, 2);
    EXPECT_TRUE(same_bits(overlapping.forward(r, training),
                          reference_pool(r, 3, 2)))
        << training;
  }
}

TEST(MaxPool2d, WindowWithoutWinnerKeepsItsGradientInItsSample) {
  // Sample 1 is all -inf, so none of its windows has a winner. Their
  // gradient goes to each window's first element, inside sample 1, and
  // sample 0 (whose own output gradient is zero) gets none of it.
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> values = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f, 8.0f};
  values.resize(16, -inf);
  const Tensor x({2, 1, 2, 4}, values);
  nn::MaxPool2d pool(2);
  pool.forward(x, /*training=*/true);
  const Tensor gx = pool.backward(
      Tensor({2, 1, 1, 2}, std::vector<float>{0.0f, 0.0f, 1.0f, 1.0f}));
  for (std::size_t i = 0; i < gx.size(); ++i)
    EXPECT_EQ(gx[i], (i == 8 || i == 10) ? 1.0f : 0.0f) << i;
}

TEST(MaxPool1d, WindowWithoutWinnerKeepsItsGradientInItsSample) {
  const float inf = std::numeric_limits<float>::infinity();
  const Tensor x({2, 1, 4}, std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f, -inf,
                                               -inf, -inf, -inf});
  nn::MaxPool1d pool(2);
  pool.forward(x, /*training=*/true);
  const Tensor gx = pool.backward(
      Tensor({2, 1, 2}, std::vector<float>{0.0f, 0.0f, 1.0f, 1.0f}));
  for (std::size_t i = 0; i < gx.size(); ++i)
    EXPECT_EQ(gx[i], (i == 4 || i == 6) ? 1.0f : 0.0f) << i;
}
