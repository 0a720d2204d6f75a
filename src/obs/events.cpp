#include "obs/events.hpp"

#include <cmath>
#include <ostream>

#include "obs/json.hpp"

namespace prionn::obs {

namespace {

template <typename Integer>
double as_number(Integer v) {
  return static_cast<double>(v);
}

std::optional<JsonObject> parse_typed(const std::string& line,
                                      const std::string& type) {
  auto object = json_parse(line);
  if (!object) return std::nullopt;
  const auto t = json_string_field(*object, "type");
  if (!t || *t != type) return std::nullopt;
  return object;
}

/// Checked index/count field: the schema stores them as JSON numbers, but
/// a hostile line can carry -1 or 1e300, and casting those doubles to an
/// unsigned type is undefined behaviour. Only exactly-representable
/// non-negative integers (<= 2^53) are meaningful for these fields.
std::optional<std::uint64_t> json_index_field(const JsonObject& o,
                                              const std::string& key) {
  const auto v = json_number_field(o, key);
  if (!v) return std::nullopt;
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  if (!(*v >= 0.0 && *v <= kMaxExact) || *v != std::floor(*v))
    return std::nullopt;
  return static_cast<std::uint64_t>(*v);
}

}  // namespace

void EventLog::append(const RetrainEvent& e) {
  JsonObject o;
  o["type"] = std::string("retrain");
  o["window_id"] = as_number(e.window_id);
  o["job_index"] = as_number(e.job_index);
  o["window_size"] = as_number(e.window_size);
  o["holdback_size"] = as_number(e.holdback_size);
  o["loss"] = e.loss;
  o["holdback_accuracy"] = e.holdback_accuracy;
  o["accepted"] = e.accepted;
  o["benched"] = e.benched;
  o["duration_ms"] = e.duration_ms;
  util::ScopedLock lock(mu_);
  lines_.push_back(json_serialize(o));
}

void EventLog::append(const WindowEvent& e) {
  JsonObject o;
  o["type"] = std::string("window");
  o["window_id"] = as_number(e.window_id);
  o["first_job_index"] = as_number(e.first_job_index);
  o["predictions"] = as_number(e.predictions);
  o["from_neural_net"] = as_number(e.from_neural_net);
  o["from_random_forest"] = as_number(e.from_random_forest);
  o["from_requested"] = as_number(e.from_requested);
  o["checkpoint_generation"] = as_number(e.checkpoint_generation);
  util::ScopedLock lock(mu_);
  lines_.push_back(json_serialize(o));
}

void EventLog::append(const IngestEvent& e) {
  JsonObject o;
  o["type"] = std::string("ingest");
  o["source"] = e.source;
  o["rows_accepted"] = as_number(e.rows_accepted);
  o["rows_quarantined"] = as_number(e.rows_quarantined);
  o["quarantined_fraction"] = e.quarantined_fraction;
  util::ScopedLock lock(mu_);
  lines_.push_back(json_serialize(o));
}

std::size_t EventLog::size() const {
  util::ScopedLock lock(mu_);
  return lines_.size();
}

void EventLog::clear() {
  util::ScopedLock lock(mu_);
  lines_.clear();
}

std::vector<std::string> EventLog::lines() const {
  util::ScopedLock lock(mu_);
  return lines_;
}

void EventLog::export_jsonl(std::ostream& os) const {
  for (const auto& line : lines()) os << line << "\n";
}

std::optional<RetrainEvent> EventLog::parse_retrain(
    const std::string& line) {
  const auto o = parse_typed(line, "retrain");
  if (!o) return std::nullopt;
  RetrainEvent e;
  const auto window_id = json_index_field(*o, "window_id");
  const auto job_index = json_index_field(*o, "job_index");
  const auto window_size = json_index_field(*o, "window_size");
  const auto holdback_size = json_index_field(*o, "holdback_size");
  const auto loss = json_array_field(*o, "loss");
  const auto holdback_accuracy = json_number_field(*o, "holdback_accuracy");
  const auto accepted = json_bool_field(*o, "accepted");
  const auto benched = json_bool_field(*o, "benched");
  const auto duration_ms = json_number_field(*o, "duration_ms");
  if (!window_id || !job_index || !window_size || !holdback_size || !loss ||
      !holdback_accuracy || !accepted || !benched || !duration_ms)
    return std::nullopt;
  e.window_id = *window_id;
  e.job_index = *job_index;
  e.window_size = static_cast<std::size_t>(*window_size);
  e.holdback_size = static_cast<std::size_t>(*holdback_size);
  e.loss = *loss;
  e.holdback_accuracy = *holdback_accuracy;
  e.accepted = *accepted;
  e.benched = *benched;
  e.duration_ms = *duration_ms;
  return e;
}

std::optional<WindowEvent> EventLog::parse_window(const std::string& line) {
  const auto o = parse_typed(line, "window");
  if (!o) return std::nullopt;
  WindowEvent e;
  const auto window_id = json_index_field(*o, "window_id");
  const auto first = json_index_field(*o, "first_job_index");
  const auto predictions = json_index_field(*o, "predictions");
  const auto nn = json_index_field(*o, "from_neural_net");
  const auto rf = json_index_field(*o, "from_random_forest");
  const auto requested = json_index_field(*o, "from_requested");
  const auto generation = json_index_field(*o, "checkpoint_generation");
  if (!window_id || !first || !predictions || !nn || !rf || !requested ||
      !generation)
    return std::nullopt;
  e.window_id = *window_id;
  e.first_job_index = *first;
  e.predictions = static_cast<std::size_t>(*predictions);
  e.from_neural_net = static_cast<std::size_t>(*nn);
  e.from_random_forest = static_cast<std::size_t>(*rf);
  e.from_requested = static_cast<std::size_t>(*requested);
  e.checkpoint_generation = *generation;
  return e;
}

std::optional<IngestEvent> EventLog::parse_ingest(const std::string& line) {
  const auto o = parse_typed(line, "ingest");
  if (!o) return std::nullopt;
  IngestEvent e;
  const auto source = json_string_field(*o, "source");
  const auto accepted = json_index_field(*o, "rows_accepted");
  const auto quarantined = json_index_field(*o, "rows_quarantined");
  const auto fraction = json_number_field(*o, "quarantined_fraction");
  if (!source || !accepted || !quarantined || !fraction) return std::nullopt;
  e.source = *source;
  e.rows_accepted = static_cast<std::size_t>(*accepted);
  e.rows_quarantined = static_cast<std::size_t>(*quarantined);
  e.quarantined_fraction = *fraction;
  return e;
}

EventLog& EventLog::global() {
  static EventLog log;
  return log;
}

}  // namespace prionn::obs
