#include "core/serve/prediction_service.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "tensor/tensor.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace prionn::core::serve {

void ServiceOptions::validate() const {
  protocol.validate("PredictionService");
  if (batching.max_batch == 0)
    throw std::invalid_argument(
        "PredictionService: batching.max_batch must be > 0");
  if (batching.queue_capacity == 0)
    throw std::invalid_argument(
        "PredictionService: batching.queue_capacity must be > 0");
}

PredictionService::PredictionService(ServiceOptions options)
    : options_(std::move(options)),
      cadence_(options_.protocol, options_.guards.max_consecutive_rejections),
      fallback_(options_.fallback),
      cache_(options_.encoding_cache_capacity) {
  options_.validate();
  {
    util::ScopedLock ml(model_mutex_);
    live_ = std::make_unique<PrionnPredictor>(options_.predictor);
    live_snapshot_ = live_->snapshot();
  }
  batcher_ = std::thread([this] { batcher_loop(); });
  if (options_.background_retrain)
    trainer_ = std::thread([this] { trainer_loop(); });
}

PredictionService::~PredictionService() {
  // Stop order matters: the batcher drains every accepted request before
  // exiting (no promise is ever abandoned), then the trainer is released.
  {
    util::ScopedLock lock(queue_mutex_);
    stopping_ = true;
    queue_cv_.notify_all();
  }
  if (batcher_.joinable()) batcher_.join();
  {
    util::ScopedLock wl(window_mutex_);
    trainer_stop_ = true;
    trainer_cv_.notify_all();
  }
  if (trainer_.joinable()) trainer_.join();
}

std::future<ProvenancedPrediction> PredictionService::submit(
    const trace::JobRecord& job) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  PRIONN_OBS_INC("prionn_serve_submissions_total",
                 "submissions accepted by the serving front-end");

  Request request;
  request.job = job;
  request.enqueue_ns = util::Timer::now_ns();
  std::future<ProvenancedPrediction> future = request.promise.get_future();

  bool shed_request = false;
  {
    util::ScopedLock lock(queue_mutex_);
    if (stopping_ || pending_.size() >= options_.batching.queue_capacity) {
      shed_request = true;
    } else {
      pending_.push_back(std::move(request));
      ++outstanding_;
      max_queue_depth_ =
          std::max<std::uint64_t>(max_queue_depth_, pending_.size());
      PRIONN_OBS_GAUGE_SET("prionn_serve_queue_depth",
                           "pending submissions in the serving queue",
                           pending_.size());
      queue_cv_.notify_one();
    }
  }
  if (shed_request) {
    // Backpressure: answer inline from the fallback chain, skipping the
    // NN leg — waiting for the busy model is exactly what shedding
    // avoids. Quality degrades (RF or the requested runtime); latency
    // does not.
    shed_.fetch_add(1, std::memory_order_relaxed);
    PRIONN_OBS_INC("prionn_serve_shed_total",
                   "submissions shed to the fallback chain (queue full)");
    ProvenancedPrediction prediction;
    {
      util::ScopedLock fl(fallback_mutex_);
      prediction = fallback_.predict(nullptr, request.job);
    }
    fulfill(request, prediction);
  }

  // §2.3 cadence: every submission counts, shed or not.
  {
    util::ScopedLock wl(window_mutex_);
    cadence_.count_submission();
    if (options_.background_retrain && !retrain_requested_ &&
        cadence_.due(total_completions_)) {
      retrain_requested_ = true;
      trainer_cv_.notify_one();
    }
  }
  return future;
}

ProvenancedPrediction PredictionService::predict_now(
    const trace::JobRecord& job) {
  return submit(job).get();
}

void PredictionService::complete(const trace::JobRecord& job) {
  const std::size_t bound = std::max(options_.protocol.train_window,
                                     options_.protocol.embedding_corpus);
  // Copy the record in, and free the one it evicts, outside the lock.
  auto record = std::make_shared<const trace::JobRecord>(job);
  std::shared_ptr<const trace::JobRecord> evicted;
  util::ScopedLock wl(window_mutex_);
  window_.push_back(std::move(record));
  while (window_.size() > bound) {
    evicted = std::move(window_.front());
    window_.pop_front();
  }
  ++total_completions_;
  PRIONN_OBS_GAUGE_SET("prionn_serve_window_size",
                       "completions retained for retraining",
                       window_.size());
}

void PredictionService::flush() {
  {
    util::ScopedLock lock(queue_mutex_);
    drain_fast_ = true;  // close the current batch without waiting out
                         // its delay budget
    queue_cv_.notify_all();
    while (outstanding_ > 0) idle_cv_.wait(queue_mutex_);
    drain_fast_ = false;
  }
  if (options_.background_retrain) {
    util::ScopedLock wl(window_mutex_);
    while (retrain_requested_ || trainer_busy_)
      trainer_done_cv_.wait(window_mutex_);
  }
}

void PredictionService::resume(DecodedCheckpoint checkpoint) {
  if (options_.background_retrain)
    throw std::logic_error(
        "PredictionService::resume: the background trainer owns the live "
        "model of this service");
  auto model =
      std::make_unique<PrionnPredictor>(std::move(checkpoint.predictor));
  std::vector<trace::JobRecord> baseline_window;
  {
    util::ScopedLock wl(window_mutex_);
    cadence_.resume(
        model->trained(),
        static_cast<std::size_t>(checkpoint.state.submissions_since_train));
    resumed_submissions_ = checkpoint.state.next_index;
    const std::size_t n =
        std::min(options_.protocol.train_window, window_.size());
    baseline_window.reserve(n);
    for (auto it = window_.end() - static_cast<std::ptrdiff_t>(n);
         it != window_.end(); ++it)
      baseline_window.push_back(**it);
  }
  publish(std::move(model), baseline_window, /*new_embedding=*/true);
}

bool PredictionService::retrain_now() {
  if (options_.background_retrain)
    throw std::logic_error(
        "PredictionService::retrain_now: the background trainer owns "
        "retraining for this service");
  return run_retrain();
}

std::size_t PredictionService::training_events() const {
  util::ScopedLock wl(window_mutex_);
  return cadence_.accepted();
}

bool PredictionService::retrain_due() const {
  util::ScopedLock wl(window_mutex_);
  return cadence_.due(total_completions_);
}

ServiceStats PredictionService::stats() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_jobs = batched_jobs_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.nn_benched = nn_benched_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < s.source_counts.size(); ++i)
    s.source_counts[i] = source_counts_[i].load(std::memory_order_relaxed);
  {
    util::ScopedLock lock(queue_mutex_);
    s.max_queue_depth = max_queue_depth_;
  }
  {
    util::ScopedLock wl(window_mutex_);
    s.swaps = cadence_.accepted();
    s.rejected_retrains = cadence_.rejected();
  }
  return s;
}

void PredictionService::batcher_loop() {
  for (;;) {
    std::vector<Request> batch;
    {
      util::ScopedLock lock(queue_mutex_);
      while (pending_.empty() && !stopping_) queue_cv_.wait(queue_mutex_);
      if (pending_.empty()) return;  // stopping, and fully drained

      // Coalesce: wait for peers until the batch fills, the oldest
      // request's delay budget runs out, or a flush/shutdown hurries us.
      const std::uint64_t deadline =
          pending_.front().enqueue_ns +
          options_.batching.max_delay_us * 1000;
      while (pending_.size() < options_.batching.max_batch && !stopping_ &&
             !drain_fast_) {
        const std::uint64_t now = util::Timer::now_ns();
        if (now >= deadline) break;
        const bool filled = queue_cv_.wait_for(
            queue_mutex_, std::chrono::nanoseconds(deadline - now),
            [this]() PRIONN_REQUIRES(queue_mutex_) {
              return pending_.size() >= options_.batching.max_batch ||
                     stopping_ || drain_fast_;
            });
        if (!filled) break;  // deadline passed first
      }

      const std::size_t n =
          std::min(options_.batching.max_batch, pending_.size());
      batch.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(pending_.front()));
        pending_.pop_front();
      }
      PRIONN_OBS_GAUGE_SET("prionn_serve_queue_depth",
                           "pending submissions in the serving queue",
                           pending_.size());
    }

    serve_batch(batch);

    {
      util::ScopedLock lock(queue_mutex_);
      outstanding_ -= batch.size();
      if (outstanding_ == 0) idle_cv_.notify_all();
    }
  }
}

void PredictionService::serve_batch(std::vector<Request>& batch) {
  PRIONN_OBS_SPAN("serve.micro_batch");
  PRIONN_OBS_TIME("prionn_serve_batch_latency_ns",
                  "wall time of one micro-batch serve");
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_jobs_.fetch_add(batch.size(), std::memory_order_relaxed);
  PRIONN_OBS_GAUGE_SET("prionn_serve_batch_size",
                       "size of the last served micro-batch", batch.size());

  // One forward pass for the whole batch, under the model lock: the
  // inference forward keeps no backward state, but it still writes the
  // layers (it drops any state a training forward kept), and the mapper
  // must not be swapped out from under us mid-batch. The trainer takes
  // this lock only for its pointer swap, so the wait here is a swap, not
  // a training event or a snapshot encode — which matters because the
  // trainer runs at idle CPU priority and may be held off a busy core
  // while it holds a lock.
  std::vector<ConfidentPrediction> nn_out;
  bool use_nn = false;
  if (!nn_benched_.load(std::memory_order_relaxed)) {
    util::ScopedLock ml(model_mutex_);
    if (live_ && live_->trained()) {
      use_nn = true;
      // An embedding (re)fit is the one event that changes the
      // script->image function: drop every cached encoding from before it.
      const std::uint64_t epoch =
          cache_epoch_.load(std::memory_order_acquire);
      if (epoch != cache_epoch_seen_) {
        cache_.clear();
        cache_epoch_seen_ = epoch;
      }
      // Assemble the batch tensor from cached per-script samples,
      // mapping only the misses.
      tensor::Tensor batch_tensor;
      std::size_t sample_size = 0;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::string& script = batch[i].job.script;
        const tensor::Tensor* sample = cache_.find(script);
        tensor::Tensor mapped;
        if (sample == nullptr) {
          mapped = live_->map_sample(script);
          sample = &mapped;
        }
        if (i == 0) {
          tensor::Shape shape;
          shape.reserve(sample->rank() + 1);
          shape.push_back(batch.size());
          for (std::size_t axis = 0; axis < sample->rank(); ++axis)
            shape.push_back(sample->dim(axis));
          batch_tensor = tensor::Tensor(std::move(shape));
          sample_size = sample->size();
        }
        std::memcpy(batch_tensor.data() + i * sample_size, sample->data(),
                    sample_size * sizeof(float));
        if (sample == &mapped) cache_.insert(script, std::move(mapped));
      }
      nn_out = live_->predict_batch_mapped(batch_tensor);
    }
  }
  cache_hits_.store(cache_.hits(), std::memory_order_relaxed);
  cache_misses_.store(cache_.misses(), std::memory_order_relaxed);
  PRIONN_OBS_GAUGE_SET("prionn_serve_cache_entries",
                       "scripts held by the encoding cache", cache_.size());

  // Fulfil outside the model lock: confidence-gated NN answers directly,
  // everything else walks the fallback chain.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::optional<ProvenancedPrediction> prediction;
    if (use_nn)
      prediction =
          accept_nn_answer(nn_out[i], options_.fallback.min_confidence);
    if (!prediction) {
      util::ScopedLock fl(fallback_mutex_);
      prediction = fallback_.predict(nullptr, batch[i].job);
    }
    fulfill(batch[i], *prediction);
  }
}

void PredictionService::fulfill(Request& request,
                                const ProvenancedPrediction& prediction) {
  const std::uint64_t latency_ns =
      util::Timer::now_ns() - request.enqueue_ns;
  PRIONN_OBS_OBSERVE_NS("prionn_serve_submit_latency_ns",
                        "submit-to-fulfilment latency", latency_ns);
  served_.fetch_add(1, std::memory_order_relaxed);
  source_counts_[static_cast<std::size_t>(prediction.source)].fetch_add(
      1, std::memory_order_relaxed);
  request.promise.set_value(prediction);
}

void PredictionService::trainer_loop() {
  // Training must never take a CPU the batcher or a submitter wants: this
  // thread and every loop it issues (forest fit, script mapping, GEMM) run
  // at idle CPU priority on the background pool.
  util::ThreadPool::enter_background();
  for (;;) {
    {
      util::ScopedLock wl(window_mutex_);
      while (!retrain_requested_ && !trainer_stop_)
        trainer_cv_.wait(window_mutex_);
      if (!retrain_requested_) return;  // stopping
      // Transfer requested -> busy in one critical section, so flush()
      // never observes the gap between the two as "idle".
      retrain_requested_ = false;
      trainer_busy_ = true;
    }
    run_retrain(/*claimed=*/true);
  }
}

bool PredictionService::run_retrain(bool claimed) {
  PRIONN_OBS_SPAN("serve.retrain");
  util::Timer retrain_timer;

  // Claim the trainer slot and snapshot the training window. Submissions
  // arriving while we train count toward the *next* interval. Only
  // pointers to the records are copied under the lock.
  std::vector<std::shared_ptr<const trace::JobRecord>> held;
  std::size_t attempt_id = 0;
  std::uint64_t job_index = 0;
  {
    util::ScopedLock wl(window_mutex_);
    if (!claimed) {  // serialize concurrent retrain_now() callers
      while (trainer_busy_) trainer_done_cv_.wait(window_mutex_);
      trainer_busy_ = true;
    }
    if (window_.empty()) {  // nothing to learn from yet
      trainer_busy_ = false;
      trainer_done_cv_.notify_all();
      return false;
    }
    attempt_id = cadence_.start_attempt();
    job_index =
        resumed_submissions_ + submitted_.load(std::memory_order_relaxed);
    held.assign(window_.begin(), window_.end());
  }
  retrain_active_.store(true, std::memory_order_relaxed);

  // Decode the shadow from the serialised live model; no lock is taken.
  // save/load is bit-exact (weights, Adam moments, dropout RNG), so
  // training the shadow follows the exact trajectory training the live
  // model in place would have.
  std::unique_ptr<PrionnPredictor> shadow;
  {
    PRIONN_OBS_SPAN("serve.snapshot");
    shadow = std::make_unique<PrionnPredictor>(
        PrionnPredictor::from_snapshot(live_snapshot_));
  }
  if (options_.reinitialize_on_retrain && shadow->trained()) {
    // Cold-restart ablation: fresh weights, the same embedding.
    auto embedding = shadow->mapper().embedding();
    *shadow = PrionnPredictor(options_.predictor);
    shadow->set_embedding(std::move(embedding));
  }
  const bool fits_embedding = shadow->needs_embedding();
  std::vector<trace::JobRecord> recent;
  const std::size_t reach =
      options_.protocol.retrain_records(*shadow, held.size());
  recent.reserve(reach);
  for (auto it = held.end() - static_cast<std::ptrdiff_t>(reach);
       it != held.end(); ++it)
    recent.push_back(**it);
  held.clear();

  obs::RetrainEvent event =
      attempt_retrain(*shadow, recent, options_.protocol, options_.guards);
  if (event.accepted)
    publish(std::move(shadow), training_window(recent, options_.protocol),
            fits_embedding);
  // A rejected shadow is simply dropped: the live model IS the
  // pre-attempt model and never stopped serving.

  {
    util::ScopedLock wl(window_mutex_);
    cadence_.finish_attempt(event.accepted);
    event.benched = cadence_.benched();
    if (event.benched) nn_benched_.store(true, std::memory_order_relaxed);
    trainer_busy_ = false;
    trainer_done_cv_.notify_all();
  }
  retrain_active_.store(false, std::memory_order_relaxed);

  event.window_id = attempt_id;
  event.job_index = job_index;
  event.duration_ms =
      static_cast<double>(retrain_timer.elapsed_ns()) / 1e6;
  obs::emit(event);
  return event.accepted;
}

void PredictionService::publish(
    std::unique_ptr<PrionnPredictor> model,
    std::span<const trace::JobRecord> baseline_window, bool new_embedding) {
  // Refit the fallback baseline on the window the model trained on. The
  // fit runs off the lock, which the batcher and the shed path take for
  // every fallback answer; a fresh predictor fits exactly what an
  // in-place refit would (fit_baseline starts from a fresh encoder).
  // Only the swap runs under the lock; the old baseline is freed after.
  if (!baseline_window.empty()) {
    FallbackPredictor refit(options_.fallback);
    refit.fit_baseline(baseline_window);
    util::ScopedLock fl(fallback_mutex_);
    std::swap(fallback_, refit);
  }
  // Serialise the new model for the next retrain, then swap pointers
  // under the model lock. Readers observe either the old model or the new
  // one, never a half-trained mix, and block for at most the swap itself;
  // the old model is freed after the lock.
  std::string published;
  {
    PRIONN_OBS_SPAN("serve.snapshot");
    published = model->snapshot();
  }
  std::uint64_t swap_ns = 0;
  {
    const std::uint64_t t0 = util::Timer::now_ns();
    util::ScopedLock ml(model_mutex_);
    std::swap(live_, model);
    swap_ns = util::Timer::now_ns() - t0;
  }
  model.reset();
  live_snapshot_ = std::move(published);
  PRIONN_OBS_OBSERVE_NS("prionn_serve_swap_latency_ns",
                        "model publish: pointer swap incl. lock wait",
                        swap_ns);
  // A new embedding invalidates cached encodings; the batcher clears the
  // cache when it observes the bumped epoch.
  if (new_embedding) cache_epoch_.fetch_add(1, std::memory_order_release);
}

}  // namespace prionn::core::serve
