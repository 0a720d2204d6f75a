#include "nn/conv2d.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "nn/init.hpp"
#include "util/check.hpp"

namespace prionn::nn {

namespace {

// All three kernels run over a zero-padded copy of one sample, a
// (C, hp, wp) block of planes, and address it flatly: tap (c, kh, kw)
// of the output at flat position p reads the padded input at
// c * plane + kh * wp + kw + p. Output pixel (oy, ox) is p = oy * sh * wp
// + ox * sw, so one flat loop over p per tap computes every output at
// full resolution and the pitch of the padded row; positions that are not
// outputs (columns past the last kernel position, rows and columns
// between strides) are computed and discarded, and carry a zero gradient
// on the way back.

// Flat outputs per register block and row.
constexpr std::size_t kBlock = 32;
// Rows (output channels) per register block.
constexpr std::size_t kRows = 4;
// Independent partial sums per weight-gradient dot product.
constexpr std::size_t kLanes = 16;
// Taps per weight-gradient register block (one kernel row of a 3x3).
constexpr std::size_t kTapBlock = 3;

// kLanes floats as one vector value (a GCC/Clang vector extension; the
// compiler splits it into whatever registers the target has). The
// weight-gradient accumulators must stay in registers for the whole flat
// loop, which the auto-vectoriser does not manage for plain arrays there.
typedef float Lanes __attribute__((vector_size(kLanes * sizeof(float))));

std::size_t round_up(std::size_t n, std::size_t to) {
  return (n + to - 1) / to * to;
}

struct FlatGeom {
  std::size_t wp, plane;  // padded row pitch and plane size
  std::size_t sh, sw;     // strides
  std::size_t span;       // flat positions from the first to the last output
  std::size_t n;          // span rounded up to whole register blocks

  explicit FlatGeom(const tensor::Conv2dGeom& g)
      : wp(g.width + 2 * g.pad_w),
        plane((g.height + 2 * g.pad_h) * wp),
        sh(g.stride_h),
        sw(g.stride_w),
        span(at(g.out_h() - 1, g.out_w() - 1) + 1),
        n(round_up(span, kBlock)) {}

  /// Flat position of output pixel (oy, ox).
  std::size_t at(std::size_t oy, std::size_t ox) const {
    return oy * sh * wp + ox * sw;
  }
};

/// Per-thread scratch, grown on demand and reused across calls so the
/// kernels do not allocate per sample.
struct Scratch {
  std::vector<std::size_t> offsets;          // of each (c, kh, kw) tap
  std::vector<std::size_t> flipped_offsets;  // of each (o, kh, kw) tap
  std::vector<float> flipped_weight;         // (C, O, kh, kw), flipped
  std::vector<float> padded;    // one zero-padded input sample (+ slack)
  std::vector<float> out;       // one sample's outputs at the padded pitch
  std::vector<float> grad_out;  // one sample's dY, at the padded pitch
  std::vector<float> grad_in;   // one sample's dX, at the padded pitch
  std::vector<Lanes> lanes;     // weight-gradient partial sums
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

template <typename T>
T* grown(std::vector<T>& buf, std::size_t n) {
  if (PRIONN_DCHECK_IS_ON()) {
    // Exact sizes, so that sanitizer builds catch a read past the slack.
    buf = std::vector<T>(n);
  } else if (buf.size() < n) {
    buf.resize(n);
  }
  return buf.data();
}

/// Flat offsets of the (c, kh, kw) taps, c-major, for planes `pitch`
/// floats apart.
void tap_offsets(std::size_t channels, std::size_t pitch,
                 const tensor::Conv2dGeom& g, std::size_t wp,
                 std::vector<std::size_t>& out) {
  out.clear();
  for (std::size_t c = 0; c < channels; ++c)
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw)
        out.push_back(c * pitch + kh * wp + kw);
}

/// Zero `dst` (C planes plus `slack` floats) and copy the (C, H, W)
/// sample into the centre of its planes.
void pad_sample(const tensor::Conv2dGeom& g, const FlatGeom& f,
                std::size_t slack, const float* src, float* dst) {
  std::fill_n(dst, g.channels * f.plane + slack, 0.0f);
  for (std::size_t c = 0; c < g.channels; ++c)
    for (std::size_t y = 0; y < g.height; ++y)
      std::copy_n(src + (c * g.height + y) * g.width, g.width,
                  dst + c * f.plane + (y + g.pad_h) * f.wp + g.pad_w);
}

/// out[r * out_pitch + j] = sum_t w[r * taps + t] * in[offsets[t] + j]
/// for r < R and j < kBlock. The accumulators stay in registers across
/// the taps, and each output sums its taps in order starting from zero.
template <std::size_t R>
void correlate_block(std::size_t taps, const std::size_t* offsets,
                     const float* w, const float* in, float* out,
                     std::size_t out_pitch) {
  float acc[R][kBlock] = {};
  for (std::size_t t = 0; t < taps; ++t) {
    const float* x = in + offsets[t];
    for (std::size_t r = 0; r < R; ++r) {
      const float wr = w[r * taps + t];
      for (std::size_t j = 0; j < kBlock; ++j) acc[r][j] += wr * x[j];
    }
  }
  for (std::size_t r = 0; r < R; ++r)
    std::copy_n(acc[r], kBlock, out + r * out_pitch);
}

/// out[r * n + j] = sum_t w[r * taps + t] * in[offsets[t] + j] for
/// r < rows and j < n, where n is a multiple of kBlock.
void correlate(std::size_t rows, std::size_t n,
               const std::vector<std::size_t>& offsets, const float* w,
               const float* in, float* out) {
  const std::size_t taps = offsets.size();
  for (std::size_t j = 0; j < n; j += kBlock) {
    std::size_t r = 0;
    for (; r + kRows <= rows; r += kRows)
      correlate_block<kRows>(taps, offsets.data(), w + r * taps, in + j,
                             out + r * n + j, n);
    for (; r < rows; ++r)
      correlate_block<1>(taps, offsets.data(), w + r * taps, in + j,
                         out + r * n + j, n);
  }
}

/// Weight-gradient partial sums: for r < R and k < T, lane l of
/// lanes[r * taps + k] accumulates dy[r * pitch + j] * in[offsets[k] + j]
/// over the j < n (a multiple of kLanes) with j % kLanes == l. Each lane
/// is its own sequential sum, so the loop vectorises without
/// reassociating floating-point adds; the dY loads are shared by the T
/// taps and the input loads by the R rows.
template <std::size_t R, std::size_t T>
void weight_grad_block(std::size_t n, std::size_t taps,
                       const std::size_t* offsets, const float* dy,
                       std::size_t pitch, const float* in, Lanes* lanes) {
  Lanes part[T][R] = {};
  for (std::size_t j = 0; j < n; j += kLanes) {
    Lanes d[R] = {};
    for (std::size_t r = 0; r < R; ++r)
      std::memcpy(&d[r], dy + r * pitch + j, sizeof(Lanes));
    for (std::size_t k = 0; k < T; ++k) {
      Lanes x = {};
      std::memcpy(&x, in + offsets[k] + j, sizeof x);
      for (std::size_t r = 0; r < R; ++r) part[k][r] += d[r] * x;
    }
  }
  for (std::size_t k = 0; k < T; ++k)
    for (std::size_t r = 0; r < R; ++r) lanes[r * taps + k] += part[k][r];
}

template <std::size_t R>
void weight_grad_rows(std::size_t n, const std::vector<std::size_t>& offsets,
                      const float* dy, std::size_t pitch, const float* in,
                      Lanes* lanes) {
  const std::size_t taps = offsets.size();
  std::size_t t = 0;
  for (; t + kTapBlock <= taps; t += kTapBlock)
    weight_grad_block<R, kTapBlock>(n, taps, offsets.data() + t, dy, pitch,
                                    in, lanes + t);
  for (; t < taps; ++t)
    weight_grad_block<R, 1>(n, taps, offsets.data() + t, dy, pitch, in,
                            lanes + t);
}

/// Add one sample to the (row, tap) weight-gradient partial sums
/// lanes[r * taps + t].
void weight_grad(std::size_t rows, std::size_t n,
                 const std::vector<std::size_t>& offsets, const float* dy,
                 std::size_t pitch, const float* in, Lanes* lanes) {
  const std::size_t taps = offsets.size();
  std::size_t r = 0;
  for (; r + kRows <= rows; r += kRows)
    weight_grad_rows<kRows>(n, offsets, dy + r * pitch, pitch, in,
                            lanes + r * taps);
  for (; r < rows; ++r)
    weight_grad_rows<1>(n, offsets, dy + r * pitch, pitch, in,
                        lanes + r * taps);
}

}  // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel_h, std::size_t kernel_w,
               std::size_t stride, std::size_t pad, util::Rng& rng)
    : weight_({out_channels, in_channels, kernel_h, kernel_w}),
      bias_({out_channels}),
      grad_weight_(weight_.shape()),
      grad_bias_(bias_.shape()),
      stride_(stride),
      pad_(pad) {
  he_init(weight_, in_channels * kernel_h * kernel_w, rng);
}

Conv2d::Conv2d(Tensor weight, Tensor bias, std::size_t stride,
               std::size_t pad)
    : weight_(std::move(weight)),
      bias_(std::move(bias)),
      grad_weight_(weight_.shape()),
      grad_bias_(bias_.shape()),
      stride_(stride),
      pad_(pad) {
  if (weight_.rank() != 4 || bias_.rank() != 1 ||
      bias_.dim(0) != weight_.dim(0))
    throw std::invalid_argument("Conv2d: inconsistent weight/bias shapes");
}

tensor::Conv2dGeom Conv2d::geometry(const Shape& sample) const {
  if (sample.size() != 3 || sample[0] != in_channels())
    throw std::invalid_argument(
        "Conv2d: expected (C, H, W) sample with C = " +
        std::to_string(in_channels()));
  tensor::Conv2dGeom g;
  g.channels = sample[0];
  g.height = sample[1];
  g.width = sample[2];
  g.kernel_h = weight_.dim(2);
  g.kernel_w = weight_.dim(3);
  g.stride_h = g.stride_w = stride_;
  g.pad_h = g.pad_w = pad_;
  if (g.height + 2 * g.pad_h < g.kernel_h ||
      g.width + 2 * g.pad_w < g.kernel_w)
    throw std::invalid_argument("Conv2d: kernel larger than padded input");
  return g;
}

Shape Conv2d::output_shape(const Shape& input) const {
  const auto g = geometry(input);
  return {out_channels(), g.out_h(), g.out_w()};
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  const std::size_t batch = input.dim(0);
  geom_ = geometry({input.dim(1), input.dim(2), input.dim(3)});
  keep_for_backward(input_, input, training);

  const FlatGeom f(geom_);
  const std::size_t oc = out_channels();
  const std::size_t oh = geom_.out_h(), ow = geom_.out_w();
  const std::size_t in_stride = geom_.channels * geom_.height * geom_.width;
  Tensor out({batch, oc, oh, ow});

  Scratch& s = scratch();
  tap_offsets(geom_.channels, f.plane, geom_, f.wp, s.offsets);
  // Whole register blocks read up to n - span floats past the last plane.
  const std::size_t slack = f.n - f.span;
  float* padded = grown(s.padded, geom_.channels * f.plane + slack);
  float* full = grown(s.out, oc * f.n);
  for (std::size_t b = 0; b < batch; ++b) {
    pad_sample(geom_, f, slack, input.data() + b * in_stride, padded);
    // Taps in (c, kh, kw) order from zero, bias last: the summation order
    // of the patch-matrix GEMM this kernel replaced, so the outputs are
    // unchanged bit for bit.
    correlate(oc, f.n, s.offsets, weight_.data(), padded, full);
    float* dst = out.data() + b * oc * oh * ow;
    for (std::size_t o = 0; o < oc; ++o) {
      const float bias = bias_[o];
      const float* src = full + o * f.n;
      for (std::size_t oy = 0; oy < oh; ++oy)
        for (std::size_t ox = 0; ox < ow; ++ox)
          dst[(o * oh + oy) * ow + ox] = src[f.at(oy, ox)] + bias;
    }
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  PRIONN_CHECK(!input_.empty())
      << "Conv2d::backward: needs the input of a training forward";
  PRIONN_CHECK(grad_output.rank() == 4 &&
               grad_output.dim(0) == input_.dim(0) &&
               grad_output.dim(1) == out_channels() &&
               grad_output.dim(2) == geom_.out_h() &&
               grad_output.dim(3) == geom_.out_w())
      << "Conv2d::backward: gradient shape "
      << tensor::shape_to_string(grad_output.shape())
      << " does not match forward geometry (" << input_.dim(0) << ", "
      << out_channels() << ", " << geom_.out_h() << ", " << geom_.out_w()
      << ")";
  const FlatGeom f(geom_);
  const std::size_t batch = grad_output.dim(0);
  const std::size_t oc = out_channels(), ic = geom_.channels;
  const std::size_t kh_n = geom_.kernel_h, kw_n = geom_.kernel_w;
  const std::size_t oh = geom_.out_h(), ow = geom_.out_w();
  const std::size_t in_stride = ic * geom_.height * geom_.width;

  // dX is the correlation of the dY planes with the flipped, transposed
  // kernel: dX_pad[c, p] = sum_{o, kh, kw} w[o, c, kh, kw] *
  // dY[o, p - kh * wp - kw]. The dY planes carry a leading margin of
  // `margin` zeros so that every such read stays in bounds, and it is
  // computed for the flat range [first, first + n_in) that covers the
  // unpadded input pixels.
  const std::size_t margin = (kh_n - 1) * f.wp + (kw_n - 1);
  const std::size_t first = geom_.pad_h * f.wp + geom_.pad_w;
  const std::size_t n_in =
      round_up((geom_.height - 1) * f.wp + geom_.width, kBlock);
  const std::size_t n_dw = round_up(f.span, kLanes);
  const std::size_t pitch = margin + std::max(first + n_in, n_dw);

  Scratch& s = scratch();
  tap_offsets(ic, f.plane, geom_, f.wp, s.offsets);
  tap_offsets(oc, pitch, geom_, f.wp, s.flipped_offsets);
  float* flipped = grown(s.flipped_weight, ic * oc * kh_n * kw_n);
  for (std::size_t c = 0, i = 0; c < ic; ++c)
    for (std::size_t o = 0; o < oc; ++o)
      for (std::size_t kh = 0; kh < kh_n; ++kh)
        for (std::size_t kw = 0; kw < kw_n; ++kw, ++i)
          flipped[i] = weight_[((o * ic + c) * kh_n + kh_n - 1 - kh) * kw_n +
                               kw_n - 1 - kw];

  const std::size_t slack = f.n - f.span;
  float* padded = grown(s.padded, ic * f.plane + slack);
  float* dy = grown(s.grad_out, oc * pitch);
  float* dx = grown(s.grad_in, ic * n_in);
  // dW partial sums run over the whole batch and are reduced once.
  const std::size_t taps = s.offsets.size();
  Lanes* lanes = grown(s.lanes, oc * taps);
  std::fill_n(lanes, oc * taps, Lanes{});
  Tensor grad_input(input_.shape());
  for (std::size_t b = 0; b < batch; ++b) {
    pad_sample(geom_, f, slack, input_.data() + b * in_stride, padded);
    std::fill_n(dy, oc * pitch, 0.0f);
    for (std::size_t o = 0; o < oc; ++o) {
      const float* src = grad_output.data() + (b * oc + o) * oh * ow;
      float* plane = dy + o * pitch + margin;
      float sum = 0.0f;
      for (std::size_t oy = 0; oy < oh; ++oy)
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float v = src[oy * ow + ox];
          plane[f.at(oy, ox)] = v;
          sum += v;
        }
      grad_bias_[o] += sum;
    }
    weight_grad(oc, n_dw, s.offsets, dy + margin, pitch, padded, lanes);
    correlate(ic, n_in, s.flipped_offsets, flipped, dy + first, dx);
    float* gi = grad_input.data() + b * in_stride;
    for (std::size_t c = 0; c < ic; ++c)
      for (std::size_t y = 0; y < geom_.height; ++y)
        std::copy_n(dx + c * n_in + y * f.wp, geom_.width,
                    gi + (c * geom_.height + y) * geom_.width);
  }
  for (std::size_t i = 0; i < oc * taps; ++i) {
    float part[kLanes] = {};
    std::memcpy(part, &lanes[i], sizeof part);
    float sum = 0.0f;
    for (const float p : part) sum += p;
    grad_weight_[i] += sum;
  }
  return grad_input;
}

void Conv2d::save(std::ostream& os) const {
  weight_.save(os);
  bias_.save(os);
  const std::uint64_t stride = stride_, pad = pad_;
  os.write(reinterpret_cast<const char*>(&stride), sizeof(stride));
  os.write(reinterpret_cast<const char*>(&pad), sizeof(pad));
}

std::unique_ptr<Layer> Conv2d::load(std::istream& is) {
  Tensor w = Tensor::load(is);
  Tensor b = Tensor::load(is);
  std::uint64_t stride = 0, pad = 0;
  is.read(reinterpret_cast<char*>(&stride), sizeof(stride));
  is.read(reinterpret_cast<char*>(&pad), sizeof(pad));
  if (!is) throw std::runtime_error("Conv2d::load: truncated stream");
  return std::make_unique<Conv2d>(std::move(w), std::move(b),
                                  static_cast<std::size_t>(stride),
                                  static_cast<std::size_t>(pad));
}

}  // namespace prionn::nn
