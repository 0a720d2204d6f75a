// Sequential network container with a classifier-oriented training API:
// fit() runs mini-batch epochs against softmax cross-entropy (the paper's
// models are classifiers over value bins), predict_top1() serves
// inference, and repeated fit() calls realise the paper's warm-start
// retraining protocol.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "nn/layer.hpp"
#include "nn/optimizer.hpp"

namespace prionn::nn {

/// Every epoch shuffles the samples and runs every mini-batch: a fit's
/// work is epochs x batches, with no data-dependent early exit.
struct FitOptions {
  std::size_t epochs = 10;
  std::size_t batch_size = 32;
  std::uint64_t shuffle_seed = 1;
  /// Divergence guard: when > 0, a mini-batch whose global gradient L2
  /// norm exceeds this throws TrainingDiverged *before* the optimiser
  /// step, leaving the weights untouched (0 = off).
  double max_gradient_norm = 0.0;
};

struct FitReport {
  std::vector<double> epoch_loss;  // mean cross-entropy per epoch
  double final_loss() const {
    return epoch_loss.empty() ? 0.0 : epoch_loss.back();
  }
};

class Network {
 public:
  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  /// Append a layer (builder style): net.add(std::make_unique<Dense>(...)).
  Network& add(std::unique_ptr<Layer> layer);

  template <typename L, typename... Args>
  Network& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  std::size_t depth() const noexcept { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  std::size_t parameter_count() const;

  /// Shape of one output sample for one input sample shape.
  Shape output_shape(Shape input) const;

  /// Forward over a batch. training = true draws dropout masks and keeps
  /// what backward() reads; false is the inference path, which keeps
  /// nothing (see Layer::forward).
  Tensor forward(const Tensor& batch, bool training = false);

  /// Backward from a loss gradient; returns gradient w.r.t. the input batch.
  Tensor backward(const Tensor& grad_output);

  void zero_gradients();
  std::vector<Tensor*> parameters() const;
  std::vector<Tensor*> gradients() const;

  /// Train as a classifier: inputs is the batch tensor (N leading), labels
  /// are class indices. Warm start: calling fit again continues from the
  /// current weights (and the optimiser keeps its state).
  FitReport fit(const Tensor& inputs, std::span<const std::uint32_t> labels,
                Adam& opt, const FitOptions& options = {});

  /// Argmax class plus its softmax probability, per sample. One forward
  /// pass and no N x C probability tensor — the serving batch path wants
  /// both the class and a confidence without paying for the full softmax
  /// materialisation.
  struct Top1 {
    std::uint32_t cls = 0;
    double probability = 0.0;  // max softmax probability, (0, 1]
  };
  std::vector<Top1> predict_top1(const Tensor& inputs);

  void save(std::ostream& os) const;
  static Network load(std::istream& is);

 private:
  /// One gradient step on one mini-batch; returns the batch loss. Throws
  /// TrainingDiverged on a non-finite loss or (when max_gradient_norm > 0)
  /// an exploding gradient, before any weight is updated.
  double train_batch(const Tensor& inputs,
                     std::span<const std::uint32_t> labels, Adam& opt,
                     double max_gradient_norm);

  /// Gather rows `idx` of a batch tensor into a contiguous sub-batch.
  static Tensor gather(const Tensor& batch, std::span<const std::size_t> idx);

  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace prionn::nn
