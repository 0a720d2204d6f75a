// Resilience microbenchmarks: the serving-path costs the crash-safety
// machinery adds — CRC-32 over checkpoint-sized payloads, full predictor
// checkpoint encode/decode, and a durable checkpoint write with the
// last-good rotation. These bound how much of a retrain interval
// checkpointing can eat.
//
//   ./build/bench/micro_resilience
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/checkpoint.hpp"
#include "core/predictor.hpp"
#include "trace/workload.hpp"
#include "util/crc32.hpp"
#include "util/timer.hpp"

using namespace prionn;

namespace {

core::PrionnPredictor trained_predictor() {
  core::PredictorOptions options;
  options.image.rows = 32;
  options.image.cols = 32;
  options.image.transform = core::Transform::kSimple;
  options.runtime_bins = 96;
  options.io_bins = 16;
  options.epochs = 1;
  options.seed = 7;
  core::PrionnPredictor predictor(options);
  trace::WorkloadGenerator generator(trace::WorkloadOptions::cab(96));
  predictor.train(trace::completed_jobs(generator.generate()));
  return predictor;
}

// Mean wall time of `reps` calls, in microseconds. `fn` returns a value
// that is summed into `sink`, so no call can be optimised away.
template <typename Fn>
double us_per_op(std::size_t reps, std::size_t& sink, Fn&& fn) {
  util::Timer timer;
  for (std::size_t i = 0; i < reps; ++i) sink += fn();
  return static_cast<double>(timer.elapsed_ns()) / 1e3 /
         static_cast<double>(reps);
}

}  // namespace

int main() {
  std::size_t sink = 0;
  std::printf("%-28s %12s %14s\n", "operation", "us / op", "MB / s");
  constexpr std::size_t kSmall = std::size_t{64} << 10;
  for (const std::size_t bytes : {kSmall, std::size_t{4} << 20}) {
    const std::string payload(bytes, 'x');
    const double us = us_per_op(bytes == kSmall ? 2000 : 50, sink,
                                [&] { return util::crc32(payload); });
    std::printf("crc32 %-22zu %12.1f %14.0f\n", bytes, us,
                static_cast<double>(bytes) / us);
  }

  const auto predictor = trained_predictor();
  const std::string model = predictor.snapshot();
  const std::string payload =
      core::encode_checkpoint(model, core::OnlineCheckpointState{});
  const auto row = [&](const char* name, double us) {
    std::printf("%-28s %12.1f %14.0f\n", name, us,
                static_cast<double>(payload.size()) / us);
  };
  row("snapshot + encode", us_per_op(50, sink, [&] {
        return core::encode_checkpoint(predictor.snapshot(),
                                       core::OnlineCheckpointState{})
            .size();
      }));
  row("decode", us_per_op(50, sink, [&] {
        return core::decode_checkpoint(payload).state.next_index + 1;
      }));
  const std::string path =
      (std::filesystem::temp_directory_path() / "prionn_bench.ckpt")
          .string();
  row("durable write (+ rotation)", us_per_op(20, sink, [&] {
        core::write_checkpoint_file(path, model,
                                    core::OnlineCheckpointState{});
        return std::size_t{1};
      }));
  std::filesystem::remove(path);
  std::filesystem::remove(core::last_good_path(path));
  std::printf("checkpoint payload: %zu bytes (checksum %zu)\n",
              payload.size(), sink);
  return 0;
}
