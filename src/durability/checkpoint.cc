#include "durability/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "durability/artifact.h"
#include "durability/serde.h"

namespace caesar {

namespace {

constexpr uint64_t kCheckpointMagic = 0x31504B4353454143ULL;  // "CAESCKP1"
// Version 2: SEQ operator state is always automaton runs
// (CompiledPatternOp::State::Save). Version 3: the operator statistics
// counters are stored once per payload instead of per partition and query.
// Version 4: the commit snapshot inside the payload drops the virtual clock
// and the payload its own leading version byte. Version 5: aggregate state
// holds samples only (AggregateOp::State::Save), no running sums. Older
// files hold a layout that the payload CRC cannot tell apart, so their
// header is rejected and recovery falls back exactly as for a corrupt
// checkpoint.
constexpr uint32_t kCheckpointVersion = 5;

// Header bytes before the payload frame: magic, version, batch_seq,
// wal_seq, last_tick.
constexpr size_t kCheckpointHeaderBytes = 8 + 4 + 8 + 8 + 8;

// Reads and decodes checkpoint `seq`; non-ok means reject the candidate,
// an unreadable file like a corrupt one. The payload frame must fill the
// rest of the file exactly.
Status ReadCheckpoint(const std::string& dir, uint64_t seq,
                      CheckpointInfo* info) {
  Result<std::string> file = ReadWholeFile(
      (std::filesystem::path(dir) / CheckpointFileName(seq)).string(),
      "checkpoint");
  const std::string_view data =
      file.ok() ? std::string_view(file.value()) : std::string_view();
  StateReader r(data);
  uint64_t magic = r.U64();
  uint32_t version = r.U32();
  info->batch_seq = r.U64();
  info->wal_seq = r.U64();
  info->last_tick = r.I64();
  if (!r.ok() || r.remaining() < kFrameHeaderBytes ||
      magic != kCheckpointMagic || version != kCheckpointVersion) {
    return Status::DataLoss("unreadable checkpoint header");
  }
  if (info->batch_seq != seq) {
    return Status::DataLoss("checkpoint sequence does not match its name");
  }
  DecodedFrame frame = DecodeFrame(data, kCheckpointHeaderBytes);
  if (frame.status == FrameStatus::kTorn || frame.end != data.size()) {
    return Status::DataLoss("checkpoint payload length mismatch");
  }
  if (frame.status == FrameStatus::kChecksumMismatch) {
    return Status::DataLoss("checkpoint payload failed its checksum");
  }
  info->payload = std::string(frame.payload);
  return Status::Ok();
}

}  // namespace

Status WriteCheckpointFile(const std::string& dir, const CheckpointInfo& info,
                           const CrashHook& crash_hook, int64_t* fsyncs) {
  CAESAR_RETURN_IF_ERROR(CreateArtifactDir(dir, "checkpoint"));
  StateWriter w;
  w.U64(kCheckpointMagic);
  w.U32(kCheckpointVersion);
  w.U64(info.batch_seq);
  w.U64(info.wal_seq);
  w.I64(info.last_tick);
  AppendFrame(info.payload, &w);
  std::string_view bytes = w.data();

  std::string final_name = CheckpointFileName(info.batch_seq);
  std::string tmp_path =
      (std::filesystem::path(dir) / (final_name + ".tmp")).string();
  std::string final_path =
      (std::filesystem::path(dir) / final_name).string();

  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("checkpoint: open " + tmp_path);
  // A simulated kill mid-write leaves half a tmp file.
  const bool crash = crash_hook && crash_hook("checkpoint_write");
  Status status =
      WriteAll(fd, crash ? bytes.substr(0, bytes.size() / 2) : bytes,
               "checkpoint: write " + tmp_path);
  if (status.ok() && crash) {
    status = Status::DataLoss("crash injected at checkpoint_write");
  }
  if (status.ok()) status = SyncFd(fd, "checkpoint: fsync " + tmp_path, fsyncs);
  ::close(fd);
  CAESAR_RETURN_IF_ERROR(status);
  if (crash_hook && crash_hook("checkpoint_publish")) {
    // Tmp complete but never renamed: recovery must ignore it.
    return Status::DataLoss("crash injected at checkpoint_publish");
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return ErrnoStatus("checkpoint: rename " + tmp_path);
  }
  return SyncDir(dir, "checkpoint", fsyncs);
}

Result<CheckpointScanResult> FindLatestCheckpoint(const std::string& dir) {
  CheckpointScanResult result;
  // Stale tmp files are debris from an interrupted publication; the
  // protocol never reads them, so clear them out.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".tmp") {
      std::filesystem::remove(entry.path(), ec);
    }
  }
  auto checkpoints = ListArtifacts(dir, ArtifactKind::kCheckpoint);
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    const auto& [seq, name] = *it;
    CheckpointInfo info;
    Status decoded = ReadCheckpoint(dir, seq, &info);
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
  auto checkpoints = ListArtifacts(dir, ArtifactKind::kCheckpoint);
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
  CheckpointInfo info;
  if (!ReadCheckpoint(dir, checkpoints.front().first, &info).ok()) {
    return Status::Ok();  // leave everything for recovery to sort out
  }
  for (const auto& [seq, name] :
       ListArtifacts(dir, ArtifactKind::kWalSegment)) {
    if (seq >= info.wal_seq) break;
    std::filesystem::remove(std::filesystem::path(dir) / name, ec);
  }
  return Status::Ok();
}

}  // namespace caesar
