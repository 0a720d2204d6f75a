// Telemetry overhead gate. Measures the per-op cost of the PRIONN_OBS_*
// instrumentation primitives and the real per-job prediction latency,
// then asserts that the instrumentation budget of the serve path stays
// under 2% of a prediction with telemetry runtime-disabled. Registered as
// a ctest test so a regression in the disabled fast path fails the gate;
// the assertion is only enforced in unsanitized builds (sanitizers
// inflate atomics far more than the surrounding model math).
//
// Also reports the enabled-mode cost (span collection on) so the price of
// turning telemetry on is visible in bench output.
//
//   ./build/bench/micro_obs
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>

#include "core/predictor.hpp"
#include "obs/obs.hpp"
#include "trace/workload.hpp"
#include "util/timer.hpp"

using namespace prionn;

namespace {

// Keep the measured loops from being optimized away.
inline void clobber() { asm volatile("" ::: "memory"); }

template <typename Fn>
double ns_per_op(std::size_t reps, Fn&& fn) {
  util::Timer timer;
  for (std::size_t i = 0; i < reps; ++i) {
    fn();
    clobber();
  }
  return static_cast<double>(timer.elapsed_ns()) /
         static_cast<double>(reps);
}

}  // namespace

int main() {
  constexpr std::size_t kReps = 1'000'000;

  // --- primitive instrumentation costs -------------------------------
  obs::set_enabled(false);
  const double span_off =
      ns_per_op(kReps, [] { PRIONN_OBS_SPAN("micro.span"); });
  const double counter_inc = ns_per_op(kReps, [] {
    PRIONN_OBS_INC("micro_obs_counter_total", "micro-bench counter");
  });
  const double observe = ns_per_op(kReps, [] {
    PRIONN_OBS_OBSERVE_NS("micro_obs_latency_ns", "micro-bench histogram",
                          12345);
  });
  obs::set_enabled(true);
  const double span_on =
      ns_per_op(kReps, [] { PRIONN_OBS_SPAN("micro.span"); });

  std::printf("primitive costs (ns/op, %zu reps):\n", kReps);
  std::printf("  span   disabled  %8.2f\n", span_off);
  std::printf("  span   enabled   %8.2f\n", span_on);
  std::printf("  counter inc      %8.2f\n", counter_inc);
  std::printf("  histogram observe%8.2f\n", observe);

  // --- real hot-path cost: one NN prediction -------------------------
  trace::WorkloadGenerator generator(trace::WorkloadOptions::cab(96));
  const auto jobs = trace::completed_jobs(generator.generate());

  core::PredictorOptions options;
  options.image.rows = 32;
  options.image.cols = 32;
  options.image.transform = core::Transform::kSimple;
  options.epochs = 1;
  options.runtime_bins = 96;
  options.predict_io = false;
  core::PrionnPredictor predictor(options);
  predictor.train(jobs);

  obs::set_enabled(false);
  constexpr std::size_t kPredicts = 500;
  volatile double sink = 0.0;
  const std::span<const std::string> script(&jobs[0].script, 1);
  const double predict_ns = ns_per_op(kPredicts, [&] {
    sink = predictor.predict_batch(script).front().value.runtime_minutes;
  });
  static_cast<void>(sink);
  obs::set_enabled(true);

  // The serve path (FallbackPredictor::predict with a trained NN) runs
  // per prediction of this one-head model: 4 span scopes (serve.predict,
  // predict.map_image, predict.forward, predict.head_forward), 2 counter
  // bumps (total + provenance), at most 1 more when the pool is busy
  // (prionn_predict_heads_inline_total), and 2 histogram observations
  // (the chain's latency and the head's forward) — round the budget up
  // to be conservative.
  const double budget = 5.0 * span_off + 4.0 * counter_inc + 3.0 * observe;
  const double fraction = budget / predict_ns;
  std::printf("\nprediction latency (telemetry off): %.0f ns\n", predict_ns);
  std::printf("disabled instrumentation budget:    %.1f ns (%.3f%%)\n",
              budget, 100.0 * fraction);
  const double enabled_budget =
      5.0 * span_on + 4.0 * counter_inc + 3.0 * observe;
  std::printf("enabled instrumentation budget:     %.1f ns (%.3f%%)\n",
              enabled_budget, 100.0 * enabled_budget / predict_ns);

#if PRIONN_MICRO_OBS_ENFORCE
  if (!(fraction < 0.02)) {
    std::fprintf(stderr,
                 "FAIL: disabled telemetry budget %.3f%% exceeds the 2%% "
                 "hot-path ceiling\n",
                 100.0 * fraction);
    return 1;
  }
  std::printf("PASS: disabled budget under the 2%% ceiling\n");
#else
  std::printf("note: budget assertion skipped (sanitized build)\n");
#endif
  return 0;
}
