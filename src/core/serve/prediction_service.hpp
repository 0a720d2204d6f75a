// Concurrent serving front-end for the PRIONN predictor: the paper's
// §2.3 protocol (predict at submission, retrain every retrain_interval
// submissions on the train_window most recent completions), with
// inference decoupled from training so it never stalls behind a retrain.
// It is also the one engine every trace replay runs on (ServingSession).
//
//   submit() ──► bounded queue ──► batcher thread ──► one batched
//                                   forward pass per micro-batch
//   complete() ──► completion window ──► trainer thread ──► shadow
//                                   copy trained off-thread, published
//                                   with an atomic model swap
//
//   - Micro-batching: concurrent submit() calls are coalesced into
//     batches of at most `max_batch`, waiting at most `max_delay_us`
//     for peers, then served by ONE forward pass per head (the batch
//     path is per-sample identical to single-item predicts).
//   - Double-buffered model: the retrain thread decodes a shadow copy
//     from its serialised copy of the live predictor, trains it on the
//     completion window (seconds) with no lock held, serialises it, and
//     publishes it with a pointer swap. A retrain that core/online's
//     attempt_retrain rejects is discarded — the live model IS the
//     last-good snapshot, so rollback is free.
//     The trainer thread runs at idle CPU priority and issues its loops on
//     util::ThreadPool::background(), so a retrain only uses cores that
//     serving leaves idle. Because a thread at idle priority can be held
//     off a busy core for long, it holds a lock that serving takes only
//     for a pointer move or swap (see the member comments below).
//   - Encoding cache: the script->image mapping is memoised per script
//     (serve/encoding_cache.hpp); repeat submissions skip the data-
//     mapping stage. Model swaps invalidate nothing; only an embedding
//     (re)fit clears it.
//   - Backpressure: when the queue is full, submit() sheds the request
//     to the fallback chain (RF -> requested, skipping the NN leg that
//     needs the busy model) and returns an already-resolved future, so
//     saturation degrades answer quality instead of latency.
//
// Everything is instrumented: queue depth, batch size, swap latency,
// cache hit rate, shed count (see DESIGN §11).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/fallback.hpp"
#include "core/online.hpp"
#include "core/predictor.hpp"
#include "core/serve/encoding_cache.hpp"
#include "trace/job_record.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace prionn::core::serve {

struct BatchingOptions {
  /// Most submissions coalesced into one forward pass.
  std::size_t max_batch = 32;
  /// Longest the oldest queued request waits for peers before its batch
  /// is closed (the latency the batcher may add on a quiet service).
  std::uint64_t max_delay_us = 200;
  /// Bounded submit queue; a submit beyond this sheds to the fallback
  /// chain instead of queueing (backpressure).
  std::size_t queue_capacity = 1024;
};

struct ServiceOptions {
  PredictorOptions predictor;
  /// Shared §2.3 cadence parameters.
  OnlineProtocolOptions protocol;
  FallbackOptions fallback;
  BatchingOptions batching;

  /// Scripts memoised by the encoding cache; 0 disables it.
  std::size_t encoding_cache_capacity = 4096;

  /// true: a background thread retrains whenever the protocol cadence is
  /// due. false: the owner drives training explicitly via retrain_now()
  /// — the deterministic replay mode (ServingSession) uses this to retrain
  /// at exactly the submissions the §2.3 cadence names.
  bool background_retrain = true;

  /// Divergence guards: a rejected retrain is discarded and the live
  /// model keeps serving; once benched, the service degrades to the
  /// fallback chain for good.
  RetrainGuards guards;

  /// Ablation switch (Table C): every retrain after the first starts from
  /// freshly initialised weights instead of the live model's, keeping only
  /// its corpus-fitted embedding (the paper fits that once). The paper
  /// argues warm starts are what lets a 500-job window work ("learned
  /// parameters pass to subsequent models"); this lets the claim be
  /// measured.
  bool reinitialize_on_retrain = false;

  /// Throws std::invalid_argument on parameters the service cannot run
  /// with (delegates protocol checks to OnlineProtocolOptions::validate).
  void validate() const;
};

/// Point-in-time snapshot of the service counters (monotonic except
/// queue-depth watermarks). Also exported through the obs registry as
/// prionn_serve_* metrics.
struct ServiceStats {
  std::uint64_t submitted = 0;     // submit() calls accepted or shed
  std::uint64_t served = 0;        // futures fulfilled
  std::uint64_t shed = 0;          // served via the backpressure path
  std::uint64_t batches = 0;       // forward passes run
  std::uint64_t batched_jobs = 0;  // sum of batch sizes
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t swaps = 0;              // accepted retrains published
  std::uint64_t rejected_retrains = 0;  // guard-rejected (rolled back)
  std::uint64_t max_queue_depth = 0;
  bool nn_benched = false;
  /// Fulfilled predictions by provenance, in PredictionSource order.
  std::array<std::uint64_t, 3> source_counts{};

  double mean_batch_size() const noexcept {
    return batches ? static_cast<double>(batched_jobs) /
                         static_cast<double>(batches)
                   : 0.0;
  }
};

class PredictionService {
 public:
  explicit PredictionService(ServiceOptions options);
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Enqueue one submission. The future resolves when the batcher has
  /// served it (or immediately, via the fallback chain, when the queue
  /// is saturated). Never blocks on training. Thread-safe.
  std::future<ProvenancedPrediction> submit(const trace::JobRecord& job);

  /// submit() + get(): the blocking single-item convenience.
  ProvenancedPrediction predict_now(const trace::JobRecord& job);

  /// Record a completed job into the training window; may arm the
  /// background retrain when the cadence is due. Thread-safe.
  void complete(const trace::JobRecord& job);

  /// Block until every accepted submission has been served and no
  /// retrain is in flight.
  void flush();

  /// Run one training event synchronously on the calling thread, at its
  /// own CPU priority and on its own pool (only valid with
  /// background_retrain == false). Returns true when the new
  /// model was accepted and swapped in, false when the window was empty
  /// or the guards rejected it.
  bool retrain_now();

  /// Accepted training events so far.
  std::size_t training_events() const;
  bool trained() const { return training_events() > 0; }

  /// Continue from a checkpoint taken right after an accepted retrain
  /// (manual mode; call before the first submission, once the window
  /// holds the completions seen up to the checkpoint's cursor): serve its
  /// model, count the cadence on from its cursor, and refit the fallback
  /// baseline on the newest train_window completions, the window that
  /// retrain trained on.
  void resume(DecodedCheckpoint checkpoint);

  /// save() bytes of the serving model (what a checkpoint stores). Only a
  /// retrain changes them: in manual mode they are stable between
  /// retrain_now() calls.
  const std::string& live_model_bytes() const noexcept {
    return live_snapshot_;
  }

  /// Whether the §2.3 cadence has a retrain due now. With
  /// background_retrain == false the owner asks this before each
  /// submission and answers a yes with flush() + retrain_now().
  bool retrain_due() const;

  /// True while a retrain (background or retrain_now) is running — the
  /// serving-latency benches use this to classify submissions.
  bool retrain_in_flight() const noexcept {
    return retrain_active_.load(std::memory_order_relaxed);
  }

  ServiceStats stats() const;
  const ServiceOptions& options() const noexcept { return options_; }

 private:
  struct Request {
    trace::JobRecord job;
    std::promise<ProvenancedPrediction> promise;
    std::uint64_t enqueue_ns = 0;
  };

  void batcher_loop();
  void trainer_loop();
  /// Serve one popped micro-batch: one forward pass for the NN-eligible
  /// requests, fallback chain for the rest.
  void serve_batch(std::vector<Request>& batch);
  /// One full training event: snapshot -> shadow attempt_retrain ->
  /// swap-or-discard. Returns true when the shadow was published.
  /// `claimed` means the caller already owns the trainer_busy_ slot.
  bool run_retrain(bool claimed = false);
  /// Make `model` the live one: refit the fallback baseline on
  /// `baseline_window` (skipped when empty), serialise the model for the
  /// next retrain, and swap it in. `new_embedding` drops the cached
  /// encodings made with the old one.
  void publish(std::unique_ptr<PrionnPredictor> model,
               std::span<const trace::JobRecord> baseline_window,
               bool new_embedding);
  void fulfill(Request& request, const ProvenancedPrediction& prediction);

  ServiceOptions options_;

  // --- submit queue: producers -> batcher -------------------------------
  mutable util::Mutex queue_mutex_;
  util::CondVar queue_cv_;  // batcher waits for work / batch fill
  util::CondVar idle_cv_;   // flush() waits for outstanding_ == 0
  std::deque<Request> pending_ PRIONN_GUARDED_BY(queue_mutex_);
  std::size_t outstanding_ PRIONN_GUARDED_BY(queue_mutex_) = 0;
  std::uint64_t max_queue_depth_ PRIONN_GUARDED_BY(queue_mutex_) = 0;
  bool drain_fast_ PRIONN_GUARDED_BY(queue_mutex_) = false;
  bool stopping_ PRIONN_GUARDED_BY(queue_mutex_) = false;

  // --- live model: batcher <-> trainer ----------------------------------
  // Held during a batch forward pass and the trainer's pointer swap —
  // never during training, snapshot encode or decode, or freeing the old
  // model.
  mutable util::Mutex model_mutex_;
  std::unique_ptr<PrionnPredictor> live_ PRIONN_GUARDED_BY(model_mutex_);
  // save() bytes of *live_, the shadow's source at each retrain. Written
  // by the constructor, by resume() before any retrain, and then only by
  // the holder of the trainer slot (trainer_busy_) when it publishes a
  // new live_; serving never changes what save() writes, so the bytes
  // stay equal to *live_ without model_mutex_.
  std::string live_snapshot_;

  // --- completion window & protocol cadence -----------------------------
  mutable util::Mutex window_mutex_;
  util::CondVar trainer_cv_;       // trainer waits for a due cadence
  util::CondVar trainer_done_cv_;  // flush() waits for trainer idle
  // Shared, immutable records: the trainer copies pointers under the
  // lock and the records themselves after it.
  std::deque<std::shared_ptr<const trace::JobRecord>> window_
      PRIONN_GUARDED_BY(window_mutex_);
  std::size_t total_completions_ PRIONN_GUARDED_BY(window_mutex_) = 0;
  // Submissions a resumed run's predecessor served (its checkpoint's
  // cursor), so a RetrainEvent's job_index counts from the trace's start.
  std::uint64_t resumed_submissions_ PRIONN_GUARDED_BY(window_mutex_) = 0;
  RetrainCadence cadence_ PRIONN_GUARDED_BY(window_mutex_);
  bool retrain_requested_ PRIONN_GUARDED_BY(window_mutex_) = false;
  bool trainer_busy_ PRIONN_GUARDED_BY(window_mutex_) = false;
  bool trainer_stop_ PRIONN_GUARDED_BY(window_mutex_) = false;

  // --- fallback chain: batcher + shed path + trainer swap ---------------
  mutable util::Mutex fallback_mutex_;
  FallbackPredictor fallback_ PRIONN_GUARDED_BY(fallback_mutex_);

  // --- batcher-private (single-threaded, no lock) -----------------------
  EncodingCache cache_;
  std::uint64_t cache_epoch_seen_ = 0;

  // --- cross-thread flags & counters (relaxed atomics) ------------------
  std::atomic<std::uint64_t> cache_epoch_{0};  // bumped on embedding fit
  std::atomic<bool> nn_benched_{false};
  std::atomic<bool> retrain_active_{false};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_jobs_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::array<std::atomic<std::uint64_t>, 3> source_counts_{};

  std::thread batcher_;
  std::thread trainer_;
};

}  // namespace prionn::core::serve
