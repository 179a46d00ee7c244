// perfbench: the end-to-end benchmark program. Runs one workload, checks
// its derived stream against the oracle, prints a metric table on stderr
// and one JSON line on stdout:
//
//   perfbench --workload=lr-serial --seed=1 --seconds=30 --trace=0
//             --root=. --out=.bench_out [--caesard=PATH]
//
// perfbench/run.py builds this binary and turns the JSON line into the
// benchmark's result line; see perfbench/README.md for the metrics.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "measure.h"
#include "workloads.h"

namespace caesar {
namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 --root=DIR --out=DIR [--caesard=PATH]\n"
               "workloads: lr-serial lr-parallel-wal pam-seq "
               "caesard-2tenant\n");
  return 2;
}

const char* FlagValue(const char* arg, const char* key) {
  const size_t n = std::strlen(key);
  if (std::strncmp(arg, key, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + metrics[i].name + "\":{\"value\":" +
           FormatNumber(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "%s\n", title);
  for (const Metric& metric : metrics) {
    std::fprintf(stderr, "  %-40s %16.6g %s\n", metric.name.c_str(),
                 metric.value, metric.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  BenchConfig config;
  config.root = ".";
  config.out_dir = ".bench_out";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if ((value = FlagValue(arg, "--workload")) != nullptr) {
      config.workload = value;
    } else if ((value = FlagValue(arg, "--seed")) != nullptr) {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if ((value = FlagValue(arg, "--seconds")) != nullptr) {
      config.seconds = std::atof(value);
    } else if ((value = FlagValue(arg, "--trace")) != nullptr) {
      config.trace = std::strcmp(value, "0") != 0;
    } else if ((value = FlagValue(arg, "--root")) != nullptr) {
      config.root = value;
    } else if ((value = FlagValue(arg, "--out")) != nullptr) {
      config.out_dir = value;
    } else if ((value = FlagValue(arg, "--caesard")) != nullptr) {
      config.caesard = value;
    } else {
      return Usage();
    }
  }
  if (config.seconds <= 0) return Usage();
  std::error_code error;
  std::filesystem::create_directories(config.out_dir, error);
  if (error) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 config.out_dir.c_str());
    return 2;
  }

  Report report;
  int status = 0;
  if (IsLibraryWorkload(config.workload)) {
    status = RunLibraryWorkload(config, &report);
  } else if (config.workload == "caesard-2tenant") {
    status = RunDaemonWorkload(config, &report);
  } else {
    return Usage();
  }
  if (status != 0) return status;

  const double failed_share =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 0.0;
  std::fprintf(stderr, "perfbench: %s seed=%llu correct=%s attempted=%lld "
               "failed=%lld failed_ops_share=%g\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed),
               report.correct ? "true" : "false",
               static_cast<long long>(report.attempted),
               static_cast<long long>(report.failed), failed_share);
  PrintTable("end-to-end:", report.end_to_end);
  if (config.trace) PrintTable("per-module:", report.per_layer);
  report.E2e("failed_ops_share", failed_share, "ratio");

  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"end_to_end\":%s,\"per_layer\":%s}\n",
              report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              MetricsJson(report.end_to_end).c_str(),
              MetricsJson(report.per_layer).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace caesar

int main(int argc, char** argv) { return caesar::perfbench::Main(argc, argv); }
