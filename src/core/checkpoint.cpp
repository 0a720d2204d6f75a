#include "core/checkpoint.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "obs/obs.hpp"
#include "util/crc32.hpp"
#include "util/fault.hpp"

namespace prionn::core {

namespace {

namespace fs = std::filesystem;

/// Allocation-bomb guard for the payload-size field of a damaged header.
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;

template <typename T>
void write_raw(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
T read_raw(std::istream& is, const char* what) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw CheckpointError(std::string("truncated checkpoint ") + what);
  return v;
}

/// Deterministic post-rename damage used by the fault hooks: truncate the
/// file to half, or flip one bit a third of the way in.
void truncate_file(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) return;
  fs::resize_file(path, size / 2, ec);
}

void corrupt_file(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!f) return;
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::uint64_t>(f.tellg());
  if (size == 0) return;
  const auto offset = static_cast<std::streamoff>(size / 3);
  f.seekg(offset);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(offset);
  f.write(&byte, 1);
}

}  // namespace

void write_checkpoint(std::ostream& os, std::string_view payload) {
  write_raw(os, kCheckpointMagic);
  write_raw(os, kCheckpointVersion);
  write_raw(os, static_cast<std::uint64_t>(payload.size()));
  write_raw(os, util::crc32(payload));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

std::string read_checkpoint(std::istream& is) {
  if (read_raw<std::uint32_t>(is, "magic") != kCheckpointMagic)
    throw CheckpointError("not a PRIONN checkpoint (bad magic)");
  const auto version = read_raw<std::uint32_t>(is, "version");
  if (version != kCheckpointVersion)
    throw CheckpointError("unsupported checkpoint version " +
                          std::to_string(version));
  const auto size = read_raw<std::uint64_t>(is, "payload size");
  if (size > kMaxPayloadBytes)
    throw CheckpointError("implausible checkpoint payload size " +
                          std::to_string(size));
  const auto crc = read_raw<std::uint32_t>(is, "CRC");
  std::string payload(static_cast<std::size_t>(size), '\0');
  is.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!is) throw CheckpointError("truncated checkpoint payload");
  if (util::crc32(payload) != crc)
    throw CheckpointError("checkpoint CRC mismatch");
  return payload;
}

std::string encode_checkpoint(std::string_view predictor_bytes,
                              const OnlineCheckpointState& state) {
  std::ostringstream os(std::ios::binary);
  os.write(predictor_bytes.data(),
           static_cast<std::streamsize>(predictor_bytes.size()));
  write_raw(os, state.next_index);
  write_raw(os, state.submissions_since_train);
  return std::move(os).str();
}

DecodedCheckpoint decode_checkpoint(const std::string& payload) {
  std::istringstream is(payload, std::ios::binary);
  try {
    PrionnPredictor predictor = PrionnPredictor::load(is);
    OnlineCheckpointState state;
    state.next_index = read_raw<std::uint64_t>(is, "cursor");
    state.submissions_since_train = read_raw<std::uint64_t>(is, "cursor");
    return DecodedCheckpoint{std::move(predictor), state};
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::exception& e) {
    // The predictor loader throws plain runtime_errors; a payload that got
    // past the CRC yet fails there is still a checkpoint-level problem.
    throw CheckpointError(std::string("checkpoint payload rejected: ") +
                          e.what());
  }
}

std::string last_good_path(const std::string& path) {
  return path + ".last-good";
}

void write_checkpoint_file(const std::string& path,
                           std::string_view predictor_bytes,
                           const OnlineCheckpointState& state) {
  PRIONN_OBS_SPAN("checkpoint.write");
  PRIONN_OBS_TIME("prionn_checkpoint_write_latency_ns",
                  "durable checkpoint write incl. last-good rotation");
  PRIONN_OBS_INC("prionn_checkpoint_writes_total",
                 "durable checkpoint generations written");
  const std::string payload = encode_checkpoint(predictor_bytes, state);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os)
      throw std::runtime_error("write_checkpoint_file: cannot open " + tmp);
    write_checkpoint(os, payload);
    os.flush();
    if (!os)
      throw std::runtime_error("write_checkpoint_file: short write to " +
                               tmp);
  }

  std::error_code ec;
  if (fs::exists(path, ec)) {
    fs::rename(path, last_good_path(path), ec);
    if (ec)
      throw std::runtime_error(
          "write_checkpoint_file: cannot rotate last-good: " + ec.message());
  }
  fs::rename(tmp, path, ec);
  if (ec)
    throw std::runtime_error("write_checkpoint_file: cannot publish " +
                             path + ": " + ec.message());

  // Fault hooks fire after the publish: on a filesystem without atomic
  // rename semantics a crash tears the *new* primary, never the rotated
  // last-good generation.
  if (util::fault::fire(util::fault::FaultPoint::kCheckpointTruncate))
    truncate_file(path);
  if (util::fault::fire(util::fault::FaultPoint::kSnapshotCorrupt))
    corrupt_file(path);
}

DecodedCheckpoint read_checkpoint_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is)
    throw std::runtime_error("read_checkpoint_file: cannot open " + path);
  return decode_checkpoint(read_checkpoint(is));
}

const char* checkpoint_source_name(CheckpointSource s) noexcept {
  switch (s) {
    case CheckpointSource::kPrimary: return "primary";
    case CheckpointSource::kLastGood: return "last-good";
    case CheckpointSource::kNone: return "cold-start";
  }
  return "?";
}

ResumeResult resume_checkpoint(const std::string& path) {
  PRIONN_OBS_SPAN("checkpoint.resume");
  ResumeResult result;
  const auto try_load =
      [](const std::string& p,
         std::string& error) -> std::optional<DecodedCheckpoint> {
    std::error_code ec;
    if (!fs::exists(p, ec)) {
      error = p + ": no such checkpoint";
      return std::nullopt;
    }
    try {
      return read_checkpoint_file(p);
    } catch (const std::exception& e) {
      error = e.what();
      return std::nullopt;
    }
  };

  std::string error;
  if (auto primary = try_load(path, error)) {
    result.checkpoint = std::move(primary);
    result.source = CheckpointSource::kPrimary;
    PRIONN_OBS_INC("prionn_checkpoint_resume_primary_total",
                   "resumes served by the primary checkpoint");
    return result;
  }
  result.primary_error = error;
  if (auto fallback = try_load(last_good_path(path), error)) {
    result.checkpoint = std::move(fallback);
    result.source = CheckpointSource::kLastGood;
    PRIONN_OBS_INC("prionn_checkpoint_resume_lastgood_total",
                   "resumes that fell back to the last-good generation");
    return result;
  }
  result.source = CheckpointSource::kNone;
  PRIONN_OBS_INC("prionn_checkpoint_resume_cold_total",
                 "resume attempts that found no usable checkpoint");
  return result;
}

}  // namespace prionn::core
