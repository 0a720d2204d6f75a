// Serving subsystem gate. Two phases:
//
//   A. Correctness + throughput — replays the same trace through three
//      sessions. Two run the deterministic mode: one as configured
//      (micro-batching and the encoding cache on), one answering each job
//      with its own forward pass and no cache. They must agree
//      prediction-for-prediction AND provenance-for-provenance (batching
//      and the cache may change the wall clock, never the arithmetic).
//      The first is the throughput baseline. The third runs the
//      concurrent mode — the service as deployed, with retraining
//      overlapped behind serving — and carries the throughput gate, since
//      submissions there never wait for a training event. A background
//      retrain outlasts the whole replay, so the concurrent service is
//      first trained on a warm-up replay of another trace; it must then
//      serve at least the baseline's NN-served fraction, or its
//      throughput would not see the NN serving path.
//
//   B. Tail latency under retrain — runs the service in concurrent mode
//      and measures closed-loop submit latency while a background retrain
//      is in flight vs while the trainer is idle. Double buffering means
//      training happens on a shadow copy off the serving path; the gate
//      asserts p99-during-retrain stays within 2x of p99-idle (the whole
//      point of the subsystem — a blocking design is ~1000x).
//
// Its exit status acts as a ctest gate; assertions arm only in
// unsanitized builds, like micro_obs.
//
//   ./build/bench/micro_serve [--jobs=N] [--epochs=N]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "bench/common.hpp"
#include "core/serve/serving_session.hpp"
#include "trace/workload.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

using namespace prionn;
namespace serve = prionn::core::serve;

namespace {

// The paper's phase-1 configuration at bench scale: word2vec + 2-D CNN.
// Word2vec matters here — its per-character embedding lookup makes the
// data-mapping stage expensive enough that the encoding cache's repeat
// hits represent real savings, as on a production trace.
core::PredictorOptions bench_predictor(std::size_t epochs) {
  core::PredictorOptions o;
  o.image.rows = o.image.cols = 16;
  o.image.transform = core::Transform::kWord2Vec;
  o.model = core::ModelKind::kCnn2d;
  o.preset = core::ModelPreset::kFast;
  o.runtime_bins = 96;
  o.io_bins = 32;
  o.epochs = epochs;
  o.predict_io = true;
  return o;
}

core::OnlineProtocolOptions bench_protocol() {
  core::OnlineProtocolOptions p;
  p.retrain_interval = 50;
  p.train_window = 150;
  p.embedding_corpus = 150;
  p.min_initial_completions = 40;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  const std::size_t n_jobs = args.jobs ? args.jobs : 240;
  const std::size_t epochs = args.epochs ? args.epochs : 2;

  bench::print_banner(
      "micro_serve", "Concurrent serving: throughput and tail latency",
      "n/a (engineering gate, not a paper figure)",
      std::to_string(n_jobs) + " jobs, " + std::to_string(epochs) +
          " epochs");

  trace::WorkloadGenerator generator(
      trace::WorkloadOptions::cab(n_jobs + n_jobs / 8, args.seed));
  auto jobs = trace::completed_jobs(generator.generate());
  jobs.resize(std::min(jobs.size(), n_jobs));

  // --- Phase A: throughput, bit-identical replays --------------------
  serve::SessionOptions session_options;
  session_options.service.predictor = bench_predictor(epochs);
  session_options.service.protocol = bench_protocol();
  session_options.mode = serve::ReplayMode::kDeterministic;
  const auto served = serve::ServingSession(session_options).replay(jobs);
  const double service_s = static_cast<double>(served.replay_ns) / 1e9;

  serve::SessionOptions unbatched_options = session_options;
  unbatched_options.service.batching.max_batch = 1;
  unbatched_options.service.encoding_cache_capacity = 0;
  const auto unbatched =
      serve::ServingSession(unbatched_options).replay(jobs);

  // Bit-exact equivalence: value AND provenance must match on every job.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& a = served.predictions[i];
    const auto& b = unbatched.predictions[i];
    if (!a || !b || a->source != b->source ||
        a->value.runtime_minutes != b->value.runtime_minutes ||
        a->value.bytes_read != b->value.bytes_read ||
        a->value.bytes_written != b->value.bytes_written)
      ++mismatches;
  }

  // The service as deployed: background retrain, submissions never wait
  // for training. A warm-up replay of another trace (untimed; it ends in
  // flush(), which waits for its retrain) trains the NN first, so the
  // timed replay serves from the NN while later retrains overlap it.
  serve::SessionOptions concurrent_options;
  concurrent_options.service.predictor = bench_predictor(epochs);
  concurrent_options.service.protocol = bench_protocol();
  concurrent_options.mode = serve::ReplayMode::kConcurrent;
  serve::ServingSession concurrent_session(concurrent_options);
  {
    trace::WorkloadGenerator warmup_generator(
        trace::WorkloadOptions::cab(n_jobs + n_jobs / 8, args.seed + 1));
    auto warmup = trace::completed_jobs(warmup_generator.generate());
    warmup.resize(std::min(warmup.size(), n_jobs));
    static_cast<void>(concurrent_session.replay(warmup));
  }
  const std::size_t warmup_retrains =
      concurrent_session.service().training_events();
  const auto overlapped = concurrent_session.replay(jobs);
  const double overlapped_s =
      static_cast<double>(overlapped.replay_ns) / 1e9;
  const auto nn_served = [](const serve::SessionResult& result) {
    std::size_t n = 0;
    for (const auto& p : result.predictions)
      if (p && p->source == core::PredictionSource::kNeuralNet) ++n;
    return n;
  };
  const std::size_t served_nn = nn_served(served);
  const std::size_t overlapped_nn = nn_served(overlapped);

  const double service_rate = static_cast<double>(jobs.size()) / service_s;
  const double unbatched_s = static_cast<double>(unbatched.replay_ns) / 1e9;
  const double unbatched_rate =
      static_cast<double>(jobs.size()) / unbatched_s;
  const double overlapped_rate =
      static_cast<double>(jobs.size()) / overlapped_s;
  std::printf("phase A: replay of %zu jobs\n", jobs.size());
  std::printf("  service, deterministic    %7.2fs  %8.1f jobs/s  "
              "(%zu retrains, mean batch %.1f, cache hits %.0f%%, "
              "%zu/%zu NN-served)\n",
              service_s, service_rate, served.training_events,
              served.stats.mean_batch_size(),
              100.0 * static_cast<double>(served.stats.cache_hits) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, served.stats.cache_hits +
                             served.stats.cache_misses)),
              served_nn, jobs.size());
  std::printf("  batch 1, no cache         %7.2fs  %8.1f jobs/s  "
              "(deterministic; mismatches %zu)\n",
              unbatched_s, unbatched_rate, mismatches);
  std::printf("  service, concurrent       %7.2fs  %8.1f jobs/s  "
              "(%.2fx deterministic, %zu retrains overlapped after %zu in "
              "warm-up, %zu/%zu NN-served)\n",
              overlapped_s, overlapped_rate,
              overlapped_rate / service_rate,
              overlapped.training_events - warmup_retrains, warmup_retrains,
              overlapped_nn, jobs.size());

  // --- Phase B: submit latency while a retrain is in flight ----------
  serve::ServiceOptions concurrent;
  concurrent.predictor = bench_predictor(1);
  concurrent.protocol = bench_protocol();
  // Keep the trainer duty cycle well under 100% (longer interval, smaller
  // window, one epoch) so both latency classes accumulate samples.
  concurrent.protocol.retrain_interval = 150;
  concurrent.protocol.train_window = 60;
  concurrent.protocol.embedding_corpus = 60;
  concurrent.background_retrain = true;
  serve::PredictionService service(concurrent);

  for (const auto& job : jobs) service.complete(job);

  // p99 over a small sample is just the max; insist on enough samples in
  // BOTH classes that the quantile has a real tail behind it.
  std::vector<double> idle_ns, retrain_ns;
  std::size_t completion_cursor = 0;
  constexpr std::size_t kMinSamples = 250;
  constexpr std::size_t kMaxSubmissions = 20000;
  for (std::size_t i = 0;
       i < kMaxSubmissions &&
       (retrain_ns.size() < kMinSamples || idle_ns.size() < kMinSamples);
       ++i) {
    const auto& job = jobs[i % jobs.size()];
    const bool during_retrain = service.retrain_in_flight();
    util::Timer submit_timer;
    const auto prediction = service.submit(job).get();
    const double latency = static_cast<double>(submit_timer.elapsed_ns());
    static_cast<void>(prediction);
    (during_retrain ? retrain_ns : idle_ns).push_back(latency);
    // Keep the completion window moving so retrains keep firing.
    service.complete(jobs[completion_cursor++ % jobs.size()]);
  }
  service.flush();

  const double idle_p99 =
      util::quantile(std::span<const double>(idle_ns), 0.99);
  const double retrain_p99 =
      retrain_ns.empty()
          ? 0.0
          : util::quantile(std::span<const double>(retrain_ns), 0.99);
  const double ratio = idle_p99 > 0.0 ? retrain_p99 / idle_p99 : 0.0;
  std::printf("\nphase B: closed-loop submit latency (%zu idle, %zu "
              "during-retrain samples, %zu swaps)\n",
              idle_ns.size(), retrain_ns.size(),
              static_cast<std::size_t>(service.stats().swaps));
  std::printf("  idle           p99 %10.0f ns\n", idle_p99);
  std::printf("  during retrain p99 %10.0f ns  (%.2fx idle)\n", retrain_p99,
              ratio);

#if PRIONN_MICRO_SERVE_ENFORCE
  bool ok = true;
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: the batched, cached deterministic replay diverged "
                 "from the one-job-per-batch, uncached one on %zu jobs\n",
                 mismatches);
    ok = false;
  }
  if (overlapped_nn < served_nn) {
    std::fprintf(stderr,
                 "FAIL: concurrent replay served %zu answers from the NN, "
                 "fewer than the deterministic replay's %zu, so its "
                 "throughput does not measure the NN serving path\n",
                 overlapped_nn, served_nn);
    ok = false;
  }
  if (overlapped_rate < service_rate) {
    std::fprintf(stderr,
                 "FAIL: concurrent service throughput %.1f jobs/s below "
                 "the deterministic replay's %.1f jobs/s\n",
                 overlapped_rate, service_rate);
    ok = false;
  }
  if (retrain_ns.size() >= kMinSamples && idle_ns.size() >= kMinSamples &&
      ratio > 2.0) {
    std::fprintf(stderr,
                 "FAIL: p99 during retrain is %.2fx idle p99 (ceiling "
                 "2.0x)\n",
                 ratio);
    ok = false;
  }
  if (!ok) return 1;
  std::printf("PASS: bit-exact replay, throughput >= deterministic at no "
              "smaller NN-served fraction, retrain p99 within 2x idle\n");
#else
  std::printf("note: gate assertions skipped (sanitized build)\n");
#endif
  return 0;
}
