// Umbrella header for instrumented modules. Everything hot goes through
// the PRIONN_OBS_* macros below, which follow a two-level discipline:
//
//   - compile time: building with -DPRIONN_OBS=OFF (CMake) defines
//     PRIONN_OBS_ENABLED=0 and the macros expand to nothing — zero code,
//     zero data, measured by bench/micro_obs;
//   - run time: in enabled builds, span collection and the event log obey
//     obs::set_enabled(); counters/histograms always count (one relaxed
//     atomic op — cheaper than a branch would be worth).
//
// Named handles are resolved once per call site via function-local
// statics, so the hot path never touches the registry mutex.
//
// The classes themselves (Registry, TraceBuffer, EventLog, exporters)
// compile in both configurations, so tests and offline consumers do not
// depend on the build flavour; only instrumentation call sites vanish.
#pragma once

#ifndef PRIONN_OBS_ENABLED
#define PRIONN_OBS_ENABLED 1
#endif

#include "obs/events.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace prionn::obs {

inline constexpr bool kEnabled = PRIONN_OBS_ENABLED != 0;

inline Registry& registry() { return Registry::global(); }
inline EventLog& event_log() { return EventLog::global(); }
inline TraceBuffer& trace_buffer() { return TraceBuffer::global(); }

/// Slow-path event emission; compiled out entirely under PRIONN_OBS=OFF,
/// gated by the runtime switch otherwise.
template <typename Event>
inline void emit(const Event& e) {
#if PRIONN_OBS_ENABLED
  if (enabled()) event_log().append(e);
#else
  static_cast<void>(e);
#endif
}

/// RAII latency observer used by the PRIONN_OBS_TIME macro.
class ScopedLatency {
 public:
  explicit ScopedLatency(LatencyHistogram& hist) noexcept : hist_(hist) {}
  ~ScopedLatency() {
    hist_.observe(static_cast<double>(timer_.elapsed_ns()));
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  LatencyHistogram& hist_;
  util::Timer timer_;
};

}  // namespace prionn::obs

#define PRIONN_OBS_CONCAT_IMPL(a, b) a##b
#define PRIONN_OBS_CONCAT(a, b) PRIONN_OBS_CONCAT_IMPL(a, b)

#if PRIONN_OBS_ENABLED

/// Trace the enclosing scope as a span named `name` (a string literal).
#define PRIONN_OBS_SPAN(name)                                     \
  ::prionn::obs::Span PRIONN_OBS_CONCAT(prionn_obs_span_,         \
                                        __COUNTER__) { name }

/// Bump a named counter by 1 / by `n`.
#define PRIONN_OBS_INC(name, help)                                 \
  do {                                                             \
    static ::prionn::obs::Counter& prionn_obs_c =                  \
        ::prionn::obs::Registry::global().counter(name, help);     \
    prionn_obs_c.inc();                                            \
  } while (0)
#define PRIONN_OBS_ADD(name, help, n)                              \
  do {                                                             \
    static ::prionn::obs::Counter& prionn_obs_c =                  \
        ::prionn::obs::Registry::global().counter(name, help);     \
    prionn_obs_c.inc(static_cast<std::uint64_t>(n));               \
  } while (0)

/// Set a named gauge to `value`.
#define PRIONN_OBS_GAUGE_SET(name, help, value)                    \
  do {                                                             \
    static ::prionn::obs::Gauge& prionn_obs_g =                    \
        ::prionn::obs::Registry::global().gauge(name, help);       \
    prionn_obs_g.set(static_cast<double>(value));                  \
  } while (0)

/// Observe `ns` nanoseconds into a named latency histogram.
#define PRIONN_OBS_OBSERVE_NS(name, help, ns)                      \
  do {                                                             \
    static ::prionn::obs::LatencyHistogram& prionn_obs_h =         \
        ::prionn::obs::Registry::global().latency(name, help);     \
    prionn_obs_h.observe(static_cast<double>(ns));                 \
  } while (0)

/// Time the enclosing scope into a named latency histogram.
#define PRIONN_OBS_TIME(name, help)                                \
  static ::prionn::obs::LatencyHistogram& PRIONN_OBS_CONCAT(       \
      prionn_obs_th_, __LINE__) =                                  \
      ::prionn::obs::Registry::global().latency(name, help);       \
  ::prionn::obs::ScopedLatency PRIONN_OBS_CONCAT(                  \
      prionn_obs_t_, __LINE__) {                                   \
    PRIONN_OBS_CONCAT(prionn_obs_th_, __LINE__)                    \
  }

#else  // !PRIONN_OBS_ENABLED: instrumentation compiles to nothing.

#define PRIONN_OBS_SPAN(name) static_cast<void>(0)
#define PRIONN_OBS_INC(name, help) static_cast<void>(0)
#define PRIONN_OBS_ADD(name, help, n) static_cast<void>(sizeof(n))
#define PRIONN_OBS_GAUGE_SET(name, help, value) \
  static_cast<void>(sizeof(value))
#define PRIONN_OBS_OBSERVE_NS(name, help, ns) static_cast<void>(sizeof(ns))
#define PRIONN_OBS_TIME(name, help) static_cast<void>(0)

#endif  // PRIONN_OBS_ENABLED
