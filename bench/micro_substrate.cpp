// Substrate microbenchmarks (google-benchmark): GEMM throughput at the
// shapes the PRIONN models actually use, and one mini-batch
// forward/backward of the paper's 2D-CNN. Not a paper figure —
// these validate that the from-scratch substrate is fast enough to stand
// in for the paper's GPU stack on comparative-timing claims.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/model_zoo.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "tensor/gemm.hpp"
#include "util/rng.hpp"

using namespace prionn;

namespace {

void BM_GemmDenseShape(benchmark::State& state) {
  // The 960-way runtime head: (batch x features) x (features x classes).
  const std::size_t m = 32, k = 128, n = 960;
  std::vector<float> a(m * k, 0.5f), b(k * n, 0.25f), c(m * n);
  for (auto _ : state) {
    tensor::gemm(m, k, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(2 * m * k * n),
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}

void BM_Cnn2dTrainStep(benchmark::State& state) {
  core::ModelConfig cfg;
  cfg.preset = state.range(0) == 0 ? core::ModelPreset::kFast
                                   : core::ModelPreset::kPaper;
  auto net = core::build_model(cfg);
  util::Rng rng(1);
  tensor::Tensor batch({32, 4, 64, 64});
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<std::uint32_t> labels(32);
  for (std::size_t i = 0; i < 32; ++i)
    labels[i] = static_cast<std::uint32_t>(rng.uniform_int(0, 959));
  nn::Adam opt(1e-3);
  for (auto _ : state) {
    const double loss = net.train_batch(batch, labels, opt);
    benchmark::DoNotOptimize(loss);
  }
  state.counters["samples/s"] = benchmark::Counter(
      32.0, benchmark::Counter::kIsIterationInvariantRate);
}

BENCHMARK(BM_GemmDenseShape)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Cnn2dTrainStep)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
