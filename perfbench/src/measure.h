// Measurement primitives shared by the perfbench workloads: clocks, process
// CPU and memory readings, order statistics, the benchmark's own span log,
// and the metric sheet each workload fills in.
//
// Everything here observes the program from outside: spans wrap the
// benchmark's calls into the library's public functions, and CPU/memory
// come from the process CPU clock and /proc, never from counters inside src/.

#ifndef CAESAR_PERFBENCH_MEASURE_H_
#define CAESAR_PERFBENCH_MEASURE_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace caesar {
namespace perfbench {

// Monotonic clock in nanoseconds (steady_clock).
int64_t NowNs();

inline double NsToSeconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
inline double NsToMillis(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// User + system CPU of this process, all threads, in nanoseconds
// (CLOCK_PROCESS_CPUTIME_ID: fine enough to time one call).
int64_t ProcessCpuNs();

// User + system CPU seconds of another process (from /proc/<pid>/stat);
// -1 when it cannot be read.
double ChildCpuSeconds(pid_t pid);

// A "VmRSS"/"VmHWM"-style field of /proc/<pid>/status in MiB (pid 0 = this
// process); -1 when unreadable.
double StatusMiB(pid_t pid, const char* field);

// Returns freed heap to the kernel and restarts this process's peak-RSS
// mark at the current RSS, so a later VmHWM reading covers only what was
// allocated afterwards.
void ResetPeakRss();

// q-quantile (0 <= q <= 1) by nearest rank over an unsorted sample; 0 for
// an empty one.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// One span of the benchmark's trace: a named interval around a call into
// one module. `id` groups the spans of one unit of input (the tick it
// starts at); `parent` indexes the enclosing span or is -1.
struct Span {
  const char* name;
  int64_t id;
  int64_t start_ns;
  int64_t duration_ns;
  int32_t parent;
  int32_t thread;
};

// In-memory span recorder, written out once when the benchmark ends.
// Disabled recorders cost one branch per call. Not thread-safe: each
// client thread keeps its own log and the logs are merged afterwards.
class SpanLog {
 public:
  explicit SpanLog(bool enabled, int thread = 0)
      : enabled_(enabled), thread_(thread) {}

  // Opens a span and returns its index (-1 when disabled).
  int32_t Begin(const char* name, int64_t id, int32_t parent = -1);
  void End(int32_t index);
  // Records a finished span measured by the caller.
  void Add(const char* name, int64_t id, int64_t start_ns,
           int64_t duration_ns, int32_t parent = -1);

  void Merge(const SpanLog& other);

  // Chrome trace_event JSON (load in chrome://tracing or Perfetto).
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_;
  int thread_;
  std::vector<Span> spans_;
};

// Ordered metric sheet: (name, value, unit).
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void E2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void Layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

// Command-line settings every workload receives.
struct BenchConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root;     // checkout root (reads examples/models from here)
  std::string out_dir;  // scratch output: traces, WAL directories
  std::string caesard;  // daemon binary
};

// Shortest round-trip rendering of a double for the result line.
std::string FormatNumber(double value);

}  // namespace perfbench
}  // namespace caesar

#endif  // CAESAR_PERFBENCH_MEASURE_H_
