// The one artifact layer under the WAL and checkpoints: how an artifact
// file is named, how a checksummed payload is framed, and the file
// primitives both write and read paths use. wal.cc and checkpoint.cc
// decide what goes into their files; this layer decides how.
//
//   names   wal-<seq, 10 digits>.log, ckpt-<seq, 10 digits>.ckpt
//   frame   [u32 len][u32 crc32(payload)][payload], little-endian

#ifndef CAESAR_DURABILITY_ARTIFACT_H_
#define CAESAR_DURABILITY_ARTIFACT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "durability/serde.h"

namespace caesar {

enum class ArtifactKind : int8_t { kWalSegment, kCheckpoint };

// "wal-0000000001.log" / "ckpt-0000000001.ckpt" — also the
// Diagnostic::source recovery reports use.
std::string ArtifactFileName(ArtifactKind kind, uint64_t seq);
inline std::string WalSegmentFileName(uint64_t seq) {
  return ArtifactFileName(ArtifactKind::kWalSegment, seq);
}
inline std::string CheckpointFileName(uint64_t batch_seq) {
  return ArtifactFileName(ArtifactKind::kCheckpoint, batch_seq);
}
// The seq a `kind` file name carries; 0 unless the name is exactly the
// prefix, decimal digits and the suffix.
uint64_t ParseArtifactSeq(ArtifactKind kind, std::string_view filename);
// (seq, file name) of every regular `kind` file in `dir`, seq ascending;
// empty when `dir` is missing.
std::vector<std::pair<uint64_t, std::string>> ListArtifacts(
    const std::string& dir, ArtifactKind kind);

inline constexpr size_t kFrameHeaderBytes = 4 + 4;
void AppendFrame(std::string_view payload, StateWriter* w);

enum class FrameStatus : int8_t {
  kOk,
  kTorn,              // fewer bytes left than the header or its length needs
  kChecksumMismatch,  // complete, but the payload fails its CRC
};
struct DecodedFrame {
  FrameStatus status = FrameStatus::kTorn;
  std::string_view payload;  // unless torn
  size_t end = 0;            // offset just past the frame, unless torn
};
// Decodes the frame starting at data[offset].
DecodedFrame DecodeFrame(std::string_view data, size_t offset);

// File primitives; errors are Status::Internal("<what>: <strerror>").
Status ErrnoStatus(const std::string& what);
Status CreateArtifactDir(const std::string& dir, std::string_view who);
// write(2) until every byte is written, retrying on EINTR.
Status WriteAll(int fd, std::string_view bytes, const std::string& what);
// fsync(2) of a file, or of a directory so a rename in it is durable;
// bumps *fsyncs on success.
Status SyncFd(int fd, const std::string& what, int64_t* fsyncs);
Status SyncDir(const std::string& dir, const std::string& what,
               int64_t* fsyncs);
Result<std::string> ReadWholeFile(const std::string& path,
                                  const std::string& what);

}  // namespace caesar

#endif  // CAESAR_DURABILITY_ARTIFACT_H_
