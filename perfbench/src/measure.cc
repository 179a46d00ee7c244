#include "measure.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace caesar {
namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double ChildCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall, i.e. the 12th and 13th after ')'.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(text.substr(close + 1));
  std::string field;
  double utime = 0;
  double stime = 0;
  for (int i = 1; i <= 13 && fields >> field; ++i) {
    if (i == 12) utime = std::stod(field);
    if (i == 13) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double StatusMiB(pid_t pid, const char* field) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status")
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::stod(line.substr(n + 1)) / 1024.0;  // kB -> MiB
    }
  }
  return -1.0;
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

int32_t SpanLog::Begin(const char* name, int64_t id, int32_t parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, id, NowNs(), 0, parent, thread_});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::End(int32_t index) {
  if (index < 0) return;
  Span& span = spans_[static_cast<size_t>(index)];
  span.duration_ns = NowNs() - span.start_ns;
}

void SpanLog::Add(const char* name, int64_t id, int64_t start_ns,
                  int64_t duration_ns, int32_t parent) {
  if (!enabled_) return;
  spans_.push_back({name, id, start_ns, duration_ns, parent, thread_});
}

void SpanLog::Merge(const SpanLog& other) {
  const int32_t offset = static_cast<int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) epoch = std::min(epoch, span.start_ns);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out << ",\n";
    out << "{\"name\":\"" << span.name << "\",\"ph\":\"X\",\"pid\":0,\"tid\":"
        << span.thread << ",\"ts\":" << (span.start_ns - epoch) / 1000.0
        << ",\"dur\":" << span.duration_ns / 1000.0 << ",\"args\":{\"id\":"
        << span.id << ",\"parent\":" << span.parent << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) return "0";
  return std::string(buffer, end);
}

}  // namespace perfbench
}  // namespace caesar
