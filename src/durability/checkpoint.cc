#include "durability/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "durability/crc32.h"
#include "durability/serde.h"
#include "durability/wal.h"

namespace caesar {

namespace {

constexpr uint64_t kCheckpointMagic = 0x31504B4353454143ULL;  // "CAESCKP1"
// Version 2: SEQ operator state is always automaton runs
// (CompiledPatternOp::SaveState). Version 3: the operator statistics
// counters are stored once per payload instead of per partition and query.
// Older files hold a layout that the payload CRC cannot tell apart, so
// their header is rejected and recovery falls back exactly as for a
// corrupt checkpoint.
constexpr uint32_t kCheckpointVersion = 3;

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

uint64_t ParseCheckpointSeq(const std::string& filename) {
  constexpr std::string_view prefix = "ckpt-";
  constexpr std::string_view suffix = ".ckpt";
  if (filename.size() <= prefix.size() + suffix.size()) return 0;
  if (filename.compare(0, prefix.size(), prefix) != 0) return 0;
  if (filename.compare(filename.size() - suffix.size(), suffix.size(),
                       suffix) != 0) {
    return 0;
  }
  std::string digits = filename.substr(
      prefix.size(), filename.size() - prefix.size() - suffix.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return 0;
  }
  return std::strtoull(digits.c_str(), nullptr, 10);
}

std::vector<std::pair<uint64_t, std::string>> ListCheckpoints(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> checkpoints;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    uint64_t seq = ParseCheckpointSeq(name);
    if (seq > 0) checkpoints.emplace_back(seq, name);
  }
  std::sort(checkpoints.begin(), checkpoints.end());
  return checkpoints;
}

Status SyncFd(int fd, int64_t* fsyncs, const std::string& what) {
  if (::fsync(fd) != 0) return Errno(what);
  ++*fsyncs;
  return Status::Ok();
}

Status SyncDir(const std::string& dir, int64_t* fsyncs) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("checkpoint: open dir " + dir);
  Status status = SyncFd(fd, fsyncs, "checkpoint: fsync dir");
  ::close(fd);
  return status;
}

// Decodes one checkpoint file; non-ok means reject the candidate.
Status DecodeCheckpoint(const std::string& data, uint64_t expected_seq,
                        CheckpointInfo* info) {
  StateReader r(data);
  uint64_t magic = r.U64();
  uint32_t version = r.U32();
  info->batch_seq = r.U64();
  info->wal_seq = r.U64();
  info->last_tick = r.I64();
  uint32_t len = r.U32();
  uint32_t crc = r.U32();
  if (!r.ok() || magic != kCheckpointMagic || version != kCheckpointVersion) {
    return Status::DataLoss("unreadable checkpoint header");
  }
  if (info->batch_seq != expected_seq) {
    return Status::DataLoss("checkpoint sequence does not match its name");
  }
  if (len != r.remaining()) {
    return Status::DataLoss("checkpoint payload length mismatch");
  }
  info->payload = data.substr(data.size() - len);
  if (Crc32(info->payload) != crc) {
    return Status::DataLoss("checkpoint payload failed its checksum");
  }
  return Status::Ok();
}

}  // namespace

std::string CheckpointFileName(uint64_t batch_seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%010llu.ckpt",
                static_cast<unsigned long long>(batch_seq));
  return buf;
}

Status WriteCheckpointFile(const std::string& dir, const CheckpointInfo& info,
                           const CrashHook& crash_hook, int64_t* fsyncs) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("checkpoint: cannot create directory " + dir +
                            ": " + ec.message());
  }
  StateWriter w;
  w.U64(kCheckpointMagic);
  w.U32(kCheckpointVersion);
  w.U64(info.batch_seq);
  w.U64(info.wal_seq);
  w.I64(info.last_tick);
  w.U32(static_cast<uint32_t>(info.payload.size()));
  w.U32(Crc32(info.payload));
  std::string bytes = w.Take();
  bytes += info.payload;

  std::string final_name = CheckpointFileName(info.batch_seq);
  std::string tmp_path =
      (std::filesystem::path(dir) / (final_name + ".tmp")).string();
  std::string final_path =
      (std::filesystem::path(dir) / final_name).string();

  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("checkpoint: open " + tmp_path);
  size_t to_write = bytes.size();
  if (crash_hook && crash_hook("checkpoint_write")) {
    to_write /= 2;  // simulated kill mid-write: half a tmp file remains
  }
  const char* p = bytes.data();
  size_t n = to_write;
  while (n > 0) {
    ssize_t written = ::write(fd, p, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Errno("checkpoint: write " + tmp_path);
    }
    p += written;
    n -= static_cast<size_t>(written);
  }
  if (to_write != bytes.size()) {
    ::close(fd);
    return Status::DataLoss("crash injected at checkpoint_write");
  }
  Status status = SyncFd(fd, fsyncs, "checkpoint: fsync " + tmp_path);
  ::close(fd);
  CAESAR_RETURN_IF_ERROR(status);
  if (crash_hook && crash_hook("checkpoint_publish")) {
    // Tmp complete but never renamed: recovery must ignore it.
    return Status::DataLoss("crash injected at checkpoint_publish");
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Errno("checkpoint: rename " + tmp_path);
  }
  return SyncDir(dir, fsyncs);
}

Result<CheckpointScanResult> FindLatestCheckpoint(const std::string& dir) {
  CheckpointScanResult result;
  if (!std::filesystem::exists(dir)) return result;
  // Stale tmp files are debris from an interrupted publication; the
  // protocol never reads them, so clear them out.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".tmp") {
      std::filesystem::remove(entry.path(), ec);
    }
  }
  auto checkpoints = ListCheckpoints(dir);
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    const auto& [seq, name] = *it;
    std::string path = (std::filesystem::path(dir) / name).string();
    std::string data;
    {
      std::ifstream in(path, std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      data = buf.str();
    }
    CheckpointInfo info;
    Status decoded = DecodeCheckpoint(data, seq, &info);
    if (decoded.ok()) {
      result.found = true;
      result.latest = std::move(info);
      return result;
    }
    ++result.skipped_corrupt;
    Diagnostic diag = MakeDiag(DiagCode::kI411CheckpointCrcMismatch,
                               decoded.message() + "; skipped");
    diag.source = name;
    result.diagnostics.push_back(std::move(diag));
  }
  return result;
}

Status RetireOldArtifacts(const std::string& dir, int keep_checkpoints) {
  if (!std::filesystem::exists(dir)) return Status::Ok();
  auto checkpoints = ListCheckpoints(dir);
  if (checkpoints.empty()) return Status::Ok();
  size_t keep = std::max(keep_checkpoints, 1);
  std::error_code ec;
  // Delete checkpoints beyond the retention window (oldest first).
  while (checkpoints.size() > keep) {
    std::filesystem::remove(
        std::filesystem::path(dir) / checkpoints.front().second, ec);
    checkpoints.erase(checkpoints.begin());
  }
  // The oldest retained checkpoint bounds how far back replay can ever
  // start; segments strictly below its wal_seq are unreachable.
  std::string path =
      (std::filesystem::path(dir) / checkpoints.front().second).string();
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    data = buf.str();
  }
  CheckpointInfo info;
  if (!DecodeCheckpoint(data, checkpoints.front().first, &info).ok()) {
    return Status::Ok();  // leave everything for recovery to sort out
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    constexpr std::string_view prefix = "wal-";
    constexpr std::string_view suffix = ".log";
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    uint64_t seq = std::strtoull(
        name.substr(prefix.size(),
                    name.size() - prefix.size() - suffix.size())
            .c_str(),
        nullptr, 10);
    if (seq > 0 && seq < info.wal_seq) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
  return Status::Ok();
}

}  // namespace caesar
