// Layer interface of the mini deep-learning framework that stands in for
// the paper's Python DL stack. Layers process whole mini-batches: the
// leading tensor dimension is always the batch (N, ...). backward()
// accumulates parameter gradients (callers zero them between optimiser
// steps).
//
// Training and inference forwards differ in what they keep:
//   - forward(x, /*training=*/true) keeps what backward() reads (the
//     input, the output, the max-pool winners, the dropout mask);
//   - forward(x, /*training=*/false) is the serving path: it keeps no
//     backward state and drops whatever an earlier training forward kept.
//     Except in Dropout, which differs by design, its outputs
//     are bitwise those of a training forward.
// So backward() is valid only when the layer's last forward was a
// training forward of the same batch; otherwise it fails a PRIONN_CHECK
// (it never reads stale or missing state). It may be called more than
// once after one training forward.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace prionn::nn {

using tensor::Shape;
using tensor::Tensor;

class Layer {
 public:
  virtual ~Layer() = default;

  /// Type tag used by serialisation ("dense", "conv2d", ...).
  virtual std::string kind() const = 0;

  /// Shape of one output sample given one input sample's shape (no batch
  /// dimension). Throws if the input shape is incompatible.
  virtual Shape output_shape(const Shape& input) const = 0;

  /// Forward pass over a batch; `training` toggles dropout-style behaviour
  /// and whether backward state is kept (see the file comment).
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Backward pass: gradient w.r.t. this layer's input, given gradient
  /// w.r.t. its output. Accumulates into parameter gradients. Requires the
  /// last forward() to have been a training forward of the same batch.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Trainable parameters and their gradient buffers (parallel vectors).
  virtual std::vector<Tensor*> parameters() { return {}; }
  virtual std::vector<Tensor*> gradients() { return {}; }

  void zero_gradients() {
    for (Tensor* g : gradients()) g->fill(0.0f);
  }

  /// Serialise parameters + hyper-parameters (shape config).
  virtual void save(std::ostream& os) const = 0;

  /// Number of trainable scalars, for model summaries.
  std::size_t parameter_count() {
    std::size_t n = 0;
    for (Tensor* p : parameters()) n += p->size();
    return n;
  }
};

/// What a layer keeps for backward(): a copy of `value` after a training
/// forward (copy-assigned, so the buffer is reused from step to step),
/// nothing after an inference forward.
inline void keep_for_backward(Tensor& kept, const Tensor& value,
                              bool training) {
  if (training)
    kept = value;
  else
    kept = Tensor();
}

}  // namespace prionn::nn
