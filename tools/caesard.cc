// caesard: the CAESAR daemon. Hosts many tenant engines over one shared
// worker pool behind a loopback/TCP socket (see src/server/server.h for
// the concurrency model and src/server/protocol.h for the protocol).
//
//   caesard [--host=ADDR] [--port=N] [--workers=N] [--max-tenants=N]
//           [--max-pending=N] [--max-frame-bytes=N] [--port-file=PATH]
//
// Every request runs what it made runnable and replies with the derived
// rows (src/server/server.h). --deterministic is accepted and ignored, so
// scripts that pass it (perfbench does) still start the daemon.
//
// --port=0 (the default) binds an ephemeral port; --port-file writes the
// resolved port as a single line once the server is listening, which is
// how test harnesses and the CI smoke job find the daemon without racing
// it. Exits 0 on a clean shutdown (wire `shutdown` command, SIGINT, or
// SIGTERM), 2 on usage or bind errors.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "server/server.h"

namespace caesar {
namespace {

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int) { g_signal = 1; }

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host=ADDR] [--port=N] [--workers=N] [--max-tenants=N]\n"
      "          [--max-pending=N] [--max-frame-bytes=N] [--port-file=PATH]\n",
      argv0);
  return 2;
}

// --key=value matcher; returns the value tail or null.
const char* FlagValue(const char* arg, const char* key) {
  const size_t n = std::strlen(key);
  if (std::strncmp(arg, key, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

bool ParseIntFlag(const char* value, long min, long max, long* out) {
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || v < min || v > max) return false;
  *out = v;
  return true;
}

int Main(int argc, char** argv) {
  ServerOptions options;
  std::string port_file;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    long n = 0;
    if ((value = FlagValue(arg, "--host")) != nullptr) {
      options.host = value;
    } else if ((value = FlagValue(arg, "--port")) != nullptr) {
      if (!ParseIntFlag(value, 0, 65535, &n)) return Usage(argv[0]);
      options.port = static_cast<int>(n);
    } else if (std::strcmp(arg, "--deterministic") == 0) {
      // Accepted and ignored (see the file comment).
    } else if ((value = FlagValue(arg, "--workers")) != nullptr) {
      if (!ParseIntFlag(value, 1, 256, &n)) return Usage(argv[0]);
      options.executor_workers = static_cast<int>(n);
    } else if ((value = FlagValue(arg, "--max-tenants")) != nullptr) {
      if (!ParseIntFlag(value, 1, 1 << 20, &n)) return Usage(argv[0]);
      options.max_tenants = static_cast<size_t>(n);
    } else if ((value = FlagValue(arg, "--max-pending")) != nullptr) {
      if (!ParseIntFlag(value, 1, 1L << 30, &n)) return Usage(argv[0]);
      options.max_pending_events = static_cast<size_t>(n);
    } else if ((value = FlagValue(arg, "--max-frame-bytes")) != nullptr) {
      if (!ParseIntFlag(value, 2, static_cast<long>(kMaxWirePayload), &n)) {
        return Usage(argv[0]);
      }
      options.max_frame_bytes = static_cast<uint32_t>(n);
    } else if ((value = FlagValue(arg, "--port-file")) != nullptr) {
      port_file = value;
    } else {
      return Usage(argv[0]);
    }
  }

  CaesarServer server(options);
  Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "caesard: %s\n", status.ToString().c_str());
    return 2;
  }

  std::fprintf(stderr, "caesard: listening on %s:%d (%d workers)\n",
               options.host.c_str(), server.port(), options.executor_workers);

  if (!port_file.empty()) {
    // Written after listen(2) succeeded: a reader that sees the line can
    // connect immediately.
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "caesard: cannot write %s\n", port_file.c_str());
      server.Stop();
      return 2;
    }
    std::fprintf(f, "%d\n", server.port());
    std::fclose(f);
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);

  // Poll: signal handlers cannot touch the server's locks, and the wire
  // shutdown command sets stop_requested() from a handler thread.
  while (g_signal == 0 && !server.stop_requested()) {
    struct timespec ts {0, 50 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  server.Stop();
  std::fprintf(stderr, "caesard: stopped\n");
  return 0;
}

}  // namespace
}  // namespace caesar

int main(int argc, char** argv) { return caesar::Main(argc, argv); }
