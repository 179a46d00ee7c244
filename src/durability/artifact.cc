#include "durability/artifact.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "durability/crc32.h"

namespace caesar {

namespace {
// File name prefix and suffix, indexed by ArtifactKind.
constexpr std::pair<std::string_view, std::string_view> kNameParts[] = {
    {"wal-", ".log"}, {"ckpt-", ".ckpt"}};
}  // namespace

std::string ArtifactFileName(ArtifactKind kind, uint64_t seq) {
  auto [prefix, suffix] = kNameParts[static_cast<int>(kind)];
  char digits[24];
  std::snprintf(digits, sizeof(digits), "%010llu",
                static_cast<unsigned long long>(seq));
  return std::string(prefix) + digits + std::string(suffix);
}

uint64_t ParseArtifactSeq(ArtifactKind kind, std::string_view filename) {
  auto [prefix, suffix] = kNameParts[static_cast<int>(kind)];
  if (filename.size() <= prefix.size() + suffix.size() ||
      !filename.starts_with(prefix) || !filename.ends_with(suffix)) {
    return 0;
  }
  const char* first = filename.data() + prefix.size();
  const char* last = filename.data() + filename.size() - suffix.size();
  uint64_t seq = 0;
  auto [end, ec] = std::from_chars(first, last, seq);
  return ec == std::errc() && end == last ? seq : 0;
}

std::vector<std::pair<uint64_t, std::string>> ListArtifacts(
    const std::string& dir, ArtifactKind kind) {
  std::vector<std::pair<uint64_t, std::string>> artifacts;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    uint64_t seq = ParseArtifactSeq(kind, name);
    if (seq > 0) artifacts.emplace_back(seq, std::move(name));
  }
  std::sort(artifacts.begin(), artifacts.end());
  return artifacts;
}

void AppendFrame(std::string_view payload, StateWriter* w) {
  w->Reserve(w->size() + kFrameHeaderBytes + payload.size());
  w->U32(static_cast<uint32_t>(payload.size()));
  w->U32(Crc32(payload));
  w->Bytes(payload);
}

DecodedFrame DecodeFrame(std::string_view data, size_t offset) {
  DecodedFrame frame;
  StateReader header(data.substr(offset));
  const uint32_t len = header.U32();
  const uint32_t crc = header.U32();
  if (!header.ok() || len > header.remaining()) return frame;
  frame.payload = data.substr(offset + kFrameHeaderBytes, len);
  frame.end = offset + kFrameHeaderBytes + len;
  frame.status = Crc32(frame.payload) == crc ? FrameStatus::kOk
                                             : FrameStatus::kChecksumMismatch;
  return frame;
}

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

Status CreateArtifactDir(const std::string& dir, std::string_view who) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!ec) return Status::Ok();
  return Status::Internal(std::string(who) + ": cannot create directory " +
                          dir + ": " + ec.message());
}

Status WriteAll(int fd, std::string_view bytes, const std::string& what) {
  while (!bytes.empty()) {
    ssize_t written = ::write(fd, bytes.data(), bytes.size());
    if (written < 0 && errno != EINTR) return ErrnoStatus(what);
    if (written > 0) bytes.remove_prefix(static_cast<size_t>(written));
  }
  return Status::Ok();
}

Status SyncFd(int fd, const std::string& what, int64_t* fsyncs) {
  if (::fsync(fd) != 0) return ErrnoStatus(what);
  ++*fsyncs;
  return Status::Ok();
}

Status SyncDir(const std::string& dir, const std::string& what,
               int64_t* fsyncs) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus(what + ": open dir " + dir);
  Status status = SyncFd(fd, what + ": fsync dir", fsyncs);
  ::close(fd);
  return status;
}

Result<std::string> ReadWholeFile(const std::string& path,
                                  const std::string& what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return ErrnoStatus(what + ": cannot read " + path);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

}  // namespace caesar
