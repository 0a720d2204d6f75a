// Structured serving event log. One JSONL record per retrain attempt, per
// prediction window (the stretch of submissions between retrain
// boundaries), and per trace-ingestion pass, so a BENCH run or a
// long-running service leaves a machine-readable account of the online
// protocol: loss trajectories, holdback accuracy, accept and bench
// decisions, fallback provenance counts, quarantine counts, and the
// checkpoint generation each window was served under.
//
// Every record carries a "type" discriminator; the typed structs below
// are the schema, and serialise/parse round-trip exactly (tested).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace prionn::obs {

/// One retrain attempt of the online protocol (accepted or rejected).
struct RetrainEvent {
  std::uint64_t window_id = 0;     // retrain attempt ordinal, from 0
  std::uint64_t job_index = 0;     // submission index that triggered it
  std::size_t window_size = 0;     // completions trained on
  std::size_t holdback_size = 0;   // held-back validation batch (0 = off)
  std::vector<double> loss;        // per-head final losses (runtime, read, write)
  double holdback_accuracy = -1.0; // -1 when the guard did not run
  bool accepted = false;           // false: the pre-attempt model serves on
  bool benched = false;            // NN benched once this attempt ended
  double duration_ms = 0.0;
};

/// One prediction window: all submissions served between two retrain
/// boundaries (or before the first / after the last one).
struct WindowEvent {
  std::uint64_t window_id = 0;     // matches the retrain that opened it
  std::uint64_t first_job_index = 0;
  std::size_t predictions = 0;
  std::size_t from_neural_net = 0;  // provenance counts
  std::size_t from_random_forest = 0;
  std::size_t from_requested = 0;
  std::uint64_t checkpoint_generation = 0;
};

/// One quarantine-aware ingestion pass over a trace file.
struct IngestEvent {
  std::string source;              // path or logical stream name
  std::size_t rows_accepted = 0;
  std::size_t rows_quarantined = 0;
  double quarantined_fraction = 0.0;
};

/// Append-only, thread-safe event collector with JSONL export.
class EventLog {
 public:
  void append(const RetrainEvent& e);
  void append(const WindowEvent& e);
  void append(const IngestEvent& e);

  std::size_t size() const;
  void clear();

  /// Serialised records, in append order (one JSON object per entry).
  std::vector<std::string> lines() const;
  /// One record per line.
  void export_jsonl(std::ostream& os) const;

  /// Schema round-trip: parse a line back into its typed record. nullopt
  /// when the line is not that record type or is malformed.
  static std::optional<RetrainEvent> parse_retrain(const std::string& line);
  static std::optional<WindowEvent> parse_window(const std::string& line);
  static std::optional<IngestEvent> parse_ingest(const std::string& line);

  /// The process-wide log the serving loops report into.
  static EventLog& global();

 private:
  mutable util::Mutex mu_;
  std::vector<std::string> lines_ PRIONN_GUARDED_BY(mu_);
};

}  // namespace prionn::obs
