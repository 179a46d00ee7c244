#include "durability/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <utility>

#include "durability/artifact.h"
#include "durability/serde.h"

namespace caesar {

namespace {

constexpr uint64_t kWalMagic = 0x314C415753454143ULL;  // "CAESWAL1"
constexpr uint32_t kWalVersion = 1;
constexpr size_t kSegmentHeaderBytes = 8 + 4 + 8;

Diagnostic RecoveryDiag(DiagCode code, const std::string& segment,
                        std::string message) {
  Diagnostic diag = MakeDiag(code, std::move(message));
  diag.source = segment;
  return diag;
}

}  // namespace

std::string EncodeTickRecord(uint64_t batch_seq, Timestamp tick,
                             const EventPtr* events, size_t n) {
  std::string out;
  EncodeTickRecord(batch_seq, tick, events, n, &out);
  return out;
}

void EncodeTickRecord(uint64_t batch_seq, Timestamp tick,
                      const EventPtr* events, size_t n, std::string* out) {
  size_t bytes = 1 + 8 + 8 + 4;
  for (size_t i = 0; i < n; ++i) bytes += EncodedEventSize(*events[i]);
  StateWriter w(std::move(*out));
  w.Reserve(bytes);
  w.U8(kWalRecordTick);
  w.U64(batch_seq);
  w.I64(tick);
  w.U32(static_cast<uint32_t>(n));
  for (size_t i = 0; i < n; ++i) WriteEvent(&w, *events[i]);
  *out = w.Take();
}

std::string EncodeCommitRecord(uint64_t batch_seq, std::string_view snapshot) {
  StateWriter w;
  w.U8(kWalRecordCommit);
  w.U64(batch_seq);
  w.Bytes(snapshot);
  return w.Take();
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const DurabilityOptions& options, uint64_t segment_seq,
    DurabilityCounters* counters) {
  CAESAR_RETURN_IF_ERROR(CreateArtifactDir(options.dir, "wal"));
  std::unique_ptr<WalWriter> writer(new WalWriter(options, counters));
  CAESAR_RETURN_IF_ERROR(writer->OpenSegment(segment_seq));
  return writer;
}

WalWriter::~WalWriter() {
  Status status = CloseSegment();
  (void)status;  // destructor: best effort
}

Status WalWriter::OpenSegment(uint64_t seq) {
  std::string path =
      (std::filesystem::path(options_.dir) / WalSegmentFileName(seq)).string();
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return ErrnoStatus("wal: open " + path);
  fd_ = fd;
  seq_ = seq;
  segment_offset_ = 0;
  StateWriter header;
  header.U64(kWalMagic);
  header.U32(kWalVersion);
  header.U64(seq);
  CAESAR_RETURN_IF_ERROR(WriteAll(fd_, header.data(), "wal: header"));
  segment_offset_ = header.size();
  return Status::Ok();
}

Status WalWriter::CloseSegment() {
  if (fd_ < 0) return Status::Ok();
  if (::close(std::exchange(fd_, -1)) != 0) return ErrnoStatus("wal: close");
  return Status::Ok();
}

Status WalWriter::Append(std::string_view payload,
                         std::string_view crash_point) {
  if (fd_ < 0) return Status::FailedPrecondition("wal: writer closed");
  StateWriter framed(std::move(framed_));
  AppendFrame(payload, &framed);
  framed_ = framed.Take();
  if (options_.crash_hook && options_.crash_hook(crash_point)) {
    // Simulated kill mid-append: a torn prefix of the record reaches the
    // disk (header plus half the payload), then the "process" dies. The
    // recovery scan must truncate this tail (I410).
    size_t torn = kFrameHeaderBytes + payload.size() / 2;
    CAESAR_RETURN_IF_ERROR(WriteAll(
        fd_, std::string_view(framed_).substr(0, torn), "wal: torn append"));
    return Status::DataLoss("crash injected at " + std::string(crash_point));
  }
  CAESAR_RETURN_IF_ERROR(WriteAll(fd_, framed_, "wal: append"));
  segment_offset_ += framed_.size();
  ++counters_->wal_records;
  counters_->wal_bytes += static_cast<int64_t>(framed_.size());
  return Status::Ok();
}

Status WalWriter::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("wal: writer closed");
  return SyncFd(fd_, "wal: fsync", &counters_->fsyncs);
}

Status WalWriter::Rotate(uint64_t new_seq) {
  CAESAR_RETURN_IF_ERROR(CloseSegment());
  return OpenSegment(new_seq);
}

Status WalWriter::MaybeRotate() {
  if (segment_offset_ < options_.segment_bytes) return Status::Ok();
  return Rotate(seq_ + 1);
}

Result<WalScanResult> ScanWal(const std::string& dir,
                              uint64_t from_segment_seq,
                              uint64_t min_batch_seq) {
  WalScanResult result;
  result.max_batch_seq = min_batch_seq;
  auto segments = ListArtifacts(dir, ArtifactKind::kWalSegment);
  if (!segments.empty()) {
    result.next_segment_seq = segments.back().first + 1;
  }

  // Ticks of the batch currently being reassembled; discarded if the scan
  // ends before its commit record (an unsealed Run is not durable).
  WalBatch pending;
  uint64_t applied_seq = min_batch_seq;
  bool stop = false;

  for (const auto& [seq, name] : segments) {
    if (stop) break;
    if (from_segment_seq > 0 && seq < from_segment_seq) continue;
    std::string path = (std::filesystem::path(dir) / name).string();
    CAESAR_ASSIGN_OR_RETURN(std::string data, ReadWholeFile(path, "wal"));
    StateReader header(data);
    uint64_t magic = header.U64();
    uint32_t version = header.U32();
    uint64_t file_seq = header.U64();
    if (!header.ok() || magic != kWalMagic || version != kWalVersion ||
        file_seq != seq) {
      result.diagnostics.push_back(RecoveryDiag(
          DiagCode::kI412WalRecordCrcMismatch, name,
          "unreadable segment header; replay stopped at this segment"));
      break;
    }

    size_t offset = kSegmentHeaderBytes;
    while (offset < data.size()) {
      const size_t record_start = offset;
      auto truncate_tail = [&](DiagCode code, const std::string& why) {
        std::error_code ec;
        std::filesystem::resize_file(path, record_start, ec);
        size_t discarded = data.size() - record_start;
        result.diagnostics.push_back(RecoveryDiag(
            code, name,
            why + " at offset " + std::to_string(record_start) + "; " +
                std::to_string(discarded) + " byte(s) discarded"));
        if (code == DiagCode::kI410TornWalTail) {
          ++result.torn_tail_truncations;
        }
        stop = true;
      };

      DecodedFrame frame = DecodeFrame(data, offset);
      if (frame.status == FrameStatus::kTorn) {
        truncate_tail(DiagCode::kI410TornWalTail,
                      data.size() - offset < kFrameHeaderBytes
                          ? "torn record header"
                          : "torn record payload");
        break;
      }
      if (frame.status == FrameStatus::kChecksumMismatch) {
        truncate_tail(DiagCode::kI412WalRecordCrcMismatch,
                      "record checksum mismatch");
        break;
      }
      const std::string_view payload = frame.payload;
      offset = frame.end;

      StateReader r(payload);
      uint8_t type = r.U8();
      uint64_t batch_seq = r.U64();
      if (!r.ok()) {
        truncate_tail(DiagCode::kI412WalRecordCrcMismatch,
                      "record too short for its type header");
        break;
      }
      if (batch_seq <= applied_seq) {
        // Behind the recovery horizon: a duplicated tail record or a batch
        // already covered by the checkpoint. Skipped, not fatal.
        result.diagnostics.push_back(RecoveryDiag(
            DiagCode::kI413StaleWalRecord, name,
            "record for batch " + std::to_string(batch_seq) +
                " at offset " + std::to_string(record_start) +
                " is at or below the recovery horizon " +
                std::to_string(applied_seq) + "; skipped"));
        continue;
      }
      if (type == kWalRecordTick) {
        if (pending.batch_seq != batch_seq) {
          pending = WalBatch{};
          pending.batch_seq = batch_seq;
        }
        Timestamp tick = r.I64();
        uint32_t n = r.U32();
        EventBatch events;
        events.reserve(r.ok() ? n : 0);
        for (uint32_t i = 0; i < n && r.ok(); ++i) {
          EventPtr event = ReadEvent(&r);
          if (event != nullptr) events.push_back(std::move(event));
        }
        if (!r.ok()) {
          truncate_tail(DiagCode::kI412WalRecordCrcMismatch,
                        "undecodable tick record");
          break;
        }
        pending.ticks.emplace_back(tick, std::move(events));
      } else if (type == kWalRecordCommit) {
        WalBatch batch = std::move(pending);
        pending = WalBatch{};
        if (batch.batch_seq != batch_seq) {
          // Commit without its ticks in scope (e.g. an empty batch that
          // only sealed ingest-state changes).
          batch = WalBatch{};
          batch.batch_seq = batch_seq;
        }
        batch.snapshot = std::string(payload.substr(1 + 8));
        applied_seq = batch_seq;
        result.max_batch_seq = std::max(result.max_batch_seq, batch_seq);
        result.batches.push_back(std::move(batch));
      } else {
        truncate_tail(DiagCode::kI412WalRecordCrcMismatch,
                      "unknown record type " + std::to_string(type));
        break;
      }
    }
  }
  return result;
}

}  // namespace caesar
