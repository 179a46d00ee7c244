// Shared helpers for the figure-reproduction benchmark binaries: a minimal
// --key=value flag parser and fixed-width table printing, so every binary
// prints the same rows/series the paper's figures plot.

#ifndef CAESAR_BENCH_BENCH_UTIL_H_
#define CAESAR_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "runtime/observability.h"
#include "runtime/statistics.h"

namespace caesar {
namespace bench {

// Parses --key=value arguments. Unknown keys abort with a usage message
// listing the defaults the binary registered.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        std::exit(2);
      }
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = std::string(1, '1');
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  int64_t Int(const std::string& name, int64_t default_value) {
    defaults_[name] = std::to_string(default_value);
    auto it = values_.find(name);
    if (it == values_.end()) return default_value;
    used_.insert(*it);
    return std::stoll(it->second);
  }

  double Double(const std::string& name, double default_value) {
    defaults_[name] = std::to_string(default_value);
    auto it = values_.find(name);
    if (it == values_.end()) return default_value;
    used_.insert(*it);
    return std::stod(it->second);
  }

  std::string Str(const std::string& name, const std::string& default_value) {
    defaults_[name] = default_value.empty() ? "\"\"" : default_value;
    auto it = values_.find(name);
    if (it == values_.end()) return default_value;
    used_.insert(*it);
    return it->second;
  }

  // Call after reading all flags: rejects unknown ones.
  void Validate() const {
    bool bad = false;
    for (const auto& [key, value] : values_) {
      if (defaults_.count(key) == 0) {
        std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
        bad = true;
      }
    }
    if (bad) {
      std::fprintf(stderr, "known flags:\n");
      for (const auto& [key, value] : defaults_) {
        std::fprintf(stderr, "  --%s=%s\n", key.c_str(), value.c_str());
      }
      std::exit(2);
    }
  }

 private:
  std::map<std::string, std::string> values_;
  std::map<std::string, std::string> defaults_;
  std::map<std::string, std::string> used_;
};

// Collects one StatisticsReport per benchmark run (a table row / series
// point) and writes them as one JSON file for the --metrics-out flag:
//   {"benchmark": "...", "schema_version": 1,
//    "runs": [{"label": "...", "report": {...}}, ...]}
// Inactive (all methods no-ops) when constructed with an empty path, so
// benches can call it unconditionally.
class MetricsSink {
 public:
  MetricsSink(std::string benchmark, std::string path)
      : benchmark_(std::move(benchmark)), path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }

  void Add(const std::string& label, const StatisticsReport& report) {
    if (!enabled()) return;
    runs_.emplace_back(label, StatisticsToJson(report));
  }

  // Writes the collected runs; aborts on I/O failure (a benchmark whose
  // requested output cannot be written should not look like a success).
  void Write() const {
    if (!enabled()) return;
    std::ofstream out(path_, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open --metrics-out file %s\n",
                   path_.c_str());
      std::exit(1);
    }
    out << "{\"benchmark\":" << JsonQuote(benchmark_)
        << ",\"schema_version\":1,\"runs\":[";
    for (size_t i = 0; i < runs_.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"label\":" << JsonQuote(runs_[i].first)
          << ",\"report\":" << runs_[i].second << "}";
    }
    out << "]}\n";
    out.close();
    if (!out) {
      std::fprintf(stderr, "failed writing --metrics-out file %s\n",
                   path_.c_str());
      std::exit(1);
    }
    std::printf("metrics written to %s (%zu runs)\n", path_.c_str(),
                runs_.size());
  }

 private:
  std::string benchmark_;
  std::string path_;
  std::vector<std::pair<std::string, std::string>> runs_;  // label, json
};

// Fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    for (const std::string& header : headers_) {
      std::printf("%14s", header.c_str());
    }
    std::printf("\n");
    for (size_t i = 0; i < headers_.size(); ++i) std::printf("%14s", "----");
    std::printf("\n");
  }

  void Row(const std::vector<std::string>& cells) const {
    for (const std::string& cell : cells) {
      std::printf("%14s", cell.c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
  }

 private:
  std::vector<std::string> headers_;
};

inline std::string Fmt(double value, int precision = 3) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

inline std::string FmtInt(int64_t value) { return std::to_string(value); }

inline void Banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("reproduces: %s\n\n", paper_ref.c_str());
}

}  // namespace bench
}  // namespace caesar

#endif  // CAESAR_BENCH_BENCH_UTIL_H_
