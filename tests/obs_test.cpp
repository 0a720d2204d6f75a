// Telemetry substrate tests: registry exactness under concurrency, span
// nesting and ring wraparound, event-log schema round-trips, and the
// exporter formats. Everything here must pass in both build flavours —
// the classes compile regardless of PRIONN_OBS; only the macro tests are
// gated on the compile-time switch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/events.hpp"
#include "obs/exporters.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace obs = prionn::obs;

namespace {

TEST(ObsRegistry, CounterGaugeBasics) {
  obs::Registry registry;
  auto& c = registry.counter("c_total", "a counter");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  auto& g = registry.gauge("g", "a gauge");
  g.set(2.5);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  // Same name resolves to the same object.
  EXPECT_EQ(&registry.counter("c_total"), &c);
  registry.reset_all();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsRegistry, TypeMismatchThrows) {
  obs::Registry registry;
  registry.counter("metric");
  EXPECT_THROW(registry.gauge("metric"), std::logic_error);
  EXPECT_THROW(registry.latency("metric"), std::logic_error);
  registry.histogram("hist", {1.0, 2.0});
  EXPECT_THROW(registry.histogram("hist", {1.0, 3.0}), std::logic_error);
  // Identical bounds re-register fine.
  EXPECT_NO_THROW(registry.histogram("hist", {1.0, 2.0}));
}

TEST(ObsRegistry, ConcurrentCountersAreExact) {
  obs::Registry registry;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIncrements = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      // Each thread resolves its own handles, racing the registration
      // path as well as the increment path.
      auto& c = registry.counter("hits_total");
      auto& h = registry.histogram("lat", {10.0, 100.0});
      for (std::size_t i = 0; i < kIncrements; ++i) {
        c.inc();
        h.observe(static_cast<double>(i % 128));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(registry.counter("hits_total").value(), kThreads * kIncrements);
  auto& h = registry.histogram("lat", {10.0, 100.0});
  EXPECT_EQ(h.count(), kThreads * kIncrements);
  std::uint64_t in_buckets = 0;
  for (std::size_t i = 0; i < h.buckets(); ++i)
    in_buckets += h.bucket_count(i);
  EXPECT_EQ(in_buckets, kThreads * kIncrements);
}

TEST(ObsHistogram, BucketPlacementAndQuantile) {
  obs::LatencyHistogram h({10.0, 20.0, 40.0});
  h.observe(5.0);
  h.observe(15.0);
  h.observe(30.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 0u);  // +Inf
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 50.0);
  // Median target 1.5 observations: half-way through bucket (10, 20].
  EXPECT_NEAR(h.quantile(0.5), 15.0, 1e-9);
  EXPECT_LE(h.quantile(0.0), 10.0);
  EXPECT_NEAR(h.quantile(1.0), 40.0, 1e-9);
}

TEST(ObsHistogram, EmptyQuantileIsNaN) {
  obs::LatencyHistogram h({1.0});
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
}

TEST(ObsHistogram, OverflowReportsLargestFiniteBound) {
  obs::LatencyHistogram h({1.0, 2.0});
  h.observe(1000.0);  // lands in +Inf
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
}

TEST(ObsHistogram, MergeAccumulatesAndChecksBounds) {
  obs::LatencyHistogram a({10.0, 20.0});
  obs::LatencyHistogram b({10.0, 20.0});
  a.observe(5.0);
  b.observe(15.0);
  b.observe(100.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 120.0);
  EXPECT_EQ(a.bucket_count(0), 1u);
  EXPECT_EQ(a.bucket_count(1), 1u);
  EXPECT_EQ(a.bucket_count(2), 1u);
  obs::LatencyHistogram c({10.0});
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(ObsHistogram, BadBoundsThrow) {
  EXPECT_THROW(obs::LatencyHistogram({}), std::invalid_argument);
  EXPECT_THROW(obs::LatencyHistogram({2.0, 1.0}), std::invalid_argument);
}

TEST(ObsTrace, SpanNestingRecordsDepth) {
  auto& buffer = obs::TraceBuffer::global();
  obs::set_enabled(true);
  buffer.clear();
  {
    obs::Span outer("outer");
    obs::Span inner("inner");
  }
  const auto spans = buffer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Destruction order: the inner span completes first.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_STREQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_GE(spans[1].duration_ns, spans[0].duration_ns);
  buffer.clear();
}

TEST(ObsTrace, RingWrapsKeepingNewestOldestFirst) {
  obs::TraceBuffer ring(4);
  const char* names[] = {"s0", "s1", "s2", "s3", "s4", "s5"};
  for (std::uint64_t i = 0; i < 6; ++i) {
    obs::SpanRecord r;
    r.name = names[i];
    r.start_ns = i;
    ring.record(r);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_recorded(), 6u);
  const auto spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_STREQ(spans.front().name, "s2");
  EXPECT_STREQ(spans.back().name, "s5");
}

TEST(ObsTrace, RuntimeDisableSkipsCollection) {
  auto& buffer = obs::TraceBuffer::global();
  buffer.clear();
  obs::set_enabled(false);
  { obs::Span span("invisible"); }
  EXPECT_EQ(buffer.size(), 0u);
  obs::set_enabled(true);
  { obs::Span span("visible"); }
  EXPECT_EQ(buffer.size(), 1u);
  buffer.clear();
}

TEST(ObsTrace, ChromeExportEmitsBeginEndPairs) {
  obs::TraceBuffer ring(8);
  for (std::uint64_t i = 0; i < 2; ++i) {
    obs::SpanRecord r;
    r.name = "work";
    r.start_ns = 1000 * (i + 1);
    r.duration_ns = 500;
    r.thread_id = 7;
    ring.record(r);
  }
  std::ostringstream os;
  ring.export_chrome_jsonl(os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t begins = 0, ends = 0, lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    EXPECT_TRUE(line.starts_with("{\"name\":\"work\""));
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"ph\":\"B\"") != std::string::npos) ++begins;
    if (line.find("\"ph\":\"E\"") != std::string::npos) ++ends;
  }
  EXPECT_EQ(lines, 4u);
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(ends, 2u);
}

TEST(ObsEvents, RetrainRoundTrip) {
  obs::RetrainEvent e;
  e.window_id = 3;
  e.job_index = 412;
  e.window_size = 500;
  e.holdback_size = 32;
  e.loss = {0.25, 1.5, 2.75};
  e.holdback_accuracy = 0.875;
  e.accepted = false;
  e.benched = true;
  e.duration_ms = 123.5;
  obs::EventLog log;
  log.append(e);
  ASSERT_EQ(log.size(), 1u);
  const auto parsed = obs::EventLog::parse_retrain(log.lines()[0]);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->window_id, e.window_id);
  EXPECT_EQ(parsed->job_index, e.job_index);
  EXPECT_EQ(parsed->window_size, e.window_size);
  EXPECT_EQ(parsed->holdback_size, e.holdback_size);
  EXPECT_EQ(parsed->loss, e.loss);
  EXPECT_DOUBLE_EQ(parsed->holdback_accuracy, e.holdback_accuracy);
  EXPECT_EQ(parsed->accepted, e.accepted);
  EXPECT_EQ(parsed->benched, e.benched);
  EXPECT_DOUBLE_EQ(parsed->duration_ms, e.duration_ms);
  // The discriminator keeps the parsers from crossing record types.
  EXPECT_FALSE(obs::EventLog::parse_window(log.lines()[0]).has_value());
  EXPECT_FALSE(obs::EventLog::parse_ingest(log.lines()[0]).has_value());
  // Neither key of the old schema is written.
  EXPECT_EQ(log.lines()[0].find("\"rollback\""), std::string::npos);
  EXPECT_EQ(log.lines()[0].find("checkpoint_generation"), std::string::npos);
}

// Retrain records written before "rollback" and "checkpoint_generation"
// were dropped still parse: the parser ignores keys it does not read.
TEST(ObsEvents, RetrainParsesLinesWithRetiredKeys) {
  const std::string old_line =
      R"({"accepted":false,"benched":false,"checkpoint_generation":4,)"
      R"("duration_ms":12.5,"holdback_accuracy":-1,"holdback_size":0,)"
      R"("job_index":200,"loss":[0.5,1,1.5],"rollback":true,)"
      R"("type":"retrain","window_id":1,"window_size":100})";
  const auto parsed = obs::EventLog::parse_retrain(old_line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->window_id, 1u);
  EXPECT_EQ(parsed->job_index, 200u);
  EXPECT_EQ(parsed->window_size, 100u);
  EXPECT_EQ(parsed->holdback_size, 0u);
  EXPECT_EQ(parsed->loss, (std::vector<double>{0.5, 1.0, 1.5}));
  EXPECT_DOUBLE_EQ(parsed->holdback_accuracy, -1.0);
  EXPECT_FALSE(parsed->accepted);
  EXPECT_FALSE(parsed->benched);
  EXPECT_DOUBLE_EQ(parsed->duration_ms, 12.5);
}

TEST(ObsEvents, WindowRoundTrip) {
  obs::WindowEvent e;
  e.window_id = 9;
  e.first_job_index = 900;
  e.predictions = 100;
  e.from_neural_net = 60;
  e.from_random_forest = 30;
  e.from_requested = 10;
  e.checkpoint_generation = 4;
  obs::EventLog log;
  log.append(e);
  const auto parsed = obs::EventLog::parse_window(log.lines()[0]);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->window_id, e.window_id);
  EXPECT_EQ(parsed->first_job_index, e.first_job_index);
  EXPECT_EQ(parsed->predictions, e.predictions);
  EXPECT_EQ(parsed->from_neural_net, e.from_neural_net);
  EXPECT_EQ(parsed->from_random_forest, e.from_random_forest);
  EXPECT_EQ(parsed->from_requested, e.from_requested);
  EXPECT_EQ(parsed->checkpoint_generation, e.checkpoint_generation);
  EXPECT_FALSE(obs::EventLog::parse_retrain(log.lines()[0]).has_value());
}

TEST(ObsEvents, IngestRoundTrip) {
  obs::IngestEvent e;
  e.source = "trace \"a\".dat";  // exercises string escaping
  e.rows_accepted = 990;
  e.rows_quarantined = 10;
  e.quarantined_fraction = 0.01;
  obs::EventLog log;
  log.append(e);
  const auto parsed = obs::EventLog::parse_ingest(log.lines()[0]);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->source, e.source);
  EXPECT_EQ(parsed->rows_accepted, e.rows_accepted);
  EXPECT_EQ(parsed->rows_quarantined, e.rows_quarantined);
  EXPECT_DOUBLE_EQ(parsed->quarantined_fraction, e.quarantined_fraction);
}

TEST(ObsEvents, ExportJsonlOneRecordPerLine) {
  obs::EventLog log;
  log.append(obs::IngestEvent{});
  log.append(obs::WindowEvent{});
  std::ostringstream os;
  log.export_jsonl(os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    EXPECT_TRUE(obs::json_parse(line).has_value()) << line;
  }
  EXPECT_EQ(lines, 2u);
}

TEST(ObsEvents, MalformedLinesParseToNullopt) {
  EXPECT_FALSE(obs::EventLog::parse_retrain("not json").has_value());
  EXPECT_FALSE(obs::EventLog::parse_retrain("{\"type\":\"retrain\"}")
                   .has_value());  // missing fields
  EXPECT_FALSE(obs::EventLog::parse_ingest("{}").has_value());
}

TEST(ObsExporters, PrometheusGolden) {
  obs::Registry registry;
  registry.counter("demo_requests_total", "requests served").inc(3);
  registry.gauge("demo_temperature", "degrees").set(2.5);
  auto& h = registry.histogram("demo_latency", {1.0, 2.0}, "latency");
  h.observe(0.5);
  h.observe(1.5);
  h.observe(5.0);
  const std::string expected =
      "# HELP demo_requests_total requests served\n"
      "# TYPE demo_requests_total counter\n"
      "demo_requests_total 3\n"
      "# HELP demo_temperature degrees\n"
      "# TYPE demo_temperature gauge\n"
      "demo_temperature 2.5\n"
      "# HELP demo_latency latency\n"
      "# TYPE demo_latency histogram\n"
      "demo_latency_bucket{le=\"1\"} 1\n"
      "demo_latency_bucket{le=\"2\"} 2\n"
      "demo_latency_bucket{le=\"+Inf\"} 3\n"
      "demo_latency_sum 7\n"
      "demo_latency_count 3\n";
  EXPECT_EQ(obs::prometheus_text(registry), expected);
}

TEST(ObsExporters, JsonSnapshotLinesParse) {
  obs::Registry registry;
  registry.counter("c_total").inc(2);
  auto& h = registry.latency("lat_ns");
  h.observe(5000.0);
  std::istringstream is(obs::json_snapshot(registry));
  std::string line;
  std::size_t lines = 0;
  bool saw_histogram = false;
  while (std::getline(is, line)) {
    ++lines;
    const auto parsed = obs::json_parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    if (obs::json_string_field(*parsed, "kind") == "histogram") {
      saw_histogram = true;
      EXPECT_EQ(obs::json_number_field(*parsed, "count"), 1.0);
    }
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_TRUE(saw_histogram);
}

TEST(ObsExporters, ExportTelemetryFilesWritesAllFour) {
  namespace fs = std::filesystem;
  const std::string stem =
      (fs::temp_directory_path() / "prionn_obs_test_export").string();
  obs::Registry registry;
  registry.counter("c_total").inc();
  obs::EventLog events;
  events.append(obs::IngestEvent{});
  obs::TraceBuffer spans(4);
  obs::export_telemetry_files(stem, registry, events, spans);
  for (const char* suffix :
       {".prom", ".metrics.jsonl", ".events.jsonl", ".trace.jsonl"}) {
    const std::string path = stem + suffix;
    EXPECT_TRUE(fs::exists(path)) << path;
    fs::remove(path);
  }
}

#if PRIONN_OBS_ENABLED

TEST(ObsMacros, CounterMacroHitsGlobalRegistry) {
  auto& c = obs::registry().counter("obs_test_macro_total");
  const std::uint64_t before = c.value();
  PRIONN_OBS_INC("obs_test_macro_total", "test counter");
  PRIONN_OBS_INC("obs_test_macro_total", "test counter");
  PRIONN_OBS_ADD("obs_test_macro_total", "test counter", 3);
  EXPECT_EQ(c.value(), before + 5);
}

TEST(ObsMacros, EmitRespectsRuntimeSwitch) {
  auto& log = obs::event_log();
  log.clear();
  obs::set_enabled(false);
  obs::emit(obs::IngestEvent{});
  EXPECT_EQ(log.size(), 0u);
  obs::set_enabled(true);
  obs::emit(obs::IngestEvent{});
  EXPECT_EQ(log.size(), 1u);
  log.clear();
}

#endif  // PRIONN_OBS_ENABLED

}  // namespace
