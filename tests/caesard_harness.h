// Harness for the caesard end-to-end suites: spawns the real daemon binary
// (path injected via the CAESAR_CAESARD_PATH compile definition) on an
// ephemeral loopback port and talks the wire protocol to it over a real
// TCP socket — no in-process shortcuts, the bytes cross the kernel.
//
// The daemon writes its resolved port to a --port-file once listen(2)
// succeeded; WaitForPort polls that file, so there is no accept/connect
// race and no fixed port to collide on under parallel ctest.

#ifndef CAESAR_TESTS_CAESARD_HARNESS_H_
#define CAESAR_TESTS_CAESARD_HARNESS_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "gtest/gtest.h"
#include "server/wire.h"

namespace caesar {
namespace testing {

// A running caesard child process.
class Daemon {
 public:
  // Spawns `caesard <extra_flags...> --port-file=...` and waits until it
  // listens. ASSERT via valid(): a daemon that failed to boot has port -1.
  explicit Daemon(const std::vector<std::string>& extra_flags) {
    static int counter = 0;
    port_file_ = ::testing::TempDir() + "caesard_port_" +
                 std::to_string(::getpid()) + "_" +
                 std::to_string(counter++);
    std::remove(port_file_.c_str());

    std::vector<std::string> args;
    args.push_back(CAESAR_CAESARD_PATH);
    for (const std::string& flag : extra_flags) args.push_back(flag);
    args.push_back("--port-file=" + port_file_);

    pid_ = ::fork();
    if (pid_ == 0) {
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::perror("execv caesard");
      ::_exit(127);
    }

    // Poll for the port file: written only after listen(2) succeeded.
    for (int i = 0; i < 600 && port_ < 0; ++i) {  // 30 s ceiling
      std::ifstream in(port_file_);
      int port = -1;
      if (in >> port && port > 0) {
        port_ = port;
        break;
      }
      if (!Alive()) break;  // crashed during boot; stop waiting
      ::usleep(50 * 1000);
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    std::remove(port_file_.c_str());
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool valid() const { return port_ > 0; }
  int port() const { return port_; }

  // True while the child has not exited (crash detector for the fuzz leg).
  bool Alive() {
    if (pid_ <= 0) return false;
    if (reaped_) return false;
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) reaped_ = true;
    return r == 0;
  }

  // Asks for a clean exit (SIGTERM) and reports whether the child exited 0.
  bool ShutdownCleanly() {
    if (pid_ <= 0 || reaped_) return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    if (::waitpid(pid_, &status, 0) != pid_) return false;
    reaped_ = true;
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
  int port_ = -1;
  std::string port_file_;
};

// One protocol connection: request out, response in, either framing.
class Client {
 public:
  explicit Client(int port, int recv_timeout_seconds = 30) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    struct timeval tv = {recv_timeout_seconds, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
    reader_ = std::make_unique<MessageReader>(fd_);
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Sends one request document and reads one response document.
  Result<JsonValue> Call(const JsonValue& request, bool binary = true) {
    const std::string payload = request.Dump();
    Status status = binary ? WriteBinaryFrame(fd_, payload)
                           : WriteJsonLine(fd_, payload);
    if (!status.ok()) return status;
    std::string reply;
    bool reply_binary = false;
    bool eof = false;
    status = reader_->Next(&reply, &reply_binary, &eof);
    if (!status.ok()) return status;
    if (eof) return Status::DataLoss("connection closed before reply");
    // The server must answer in the framing the request used.
    if (reply_binary != binary) {
      return Status::Internal("reply framing does not mirror the request");
    }
    return ParseJson(reply);
  }

  // Fire-and-forget raw bytes (fuzz leg).
  void SendRaw(std::string_view bytes) { (void)WriteAllToSocket(fd_, bytes); }

  // Half-close: tells the server no more bytes are coming, so a torn
  // frame resolves to EOF immediately instead of a read timeout.
  void ShutdownWrite() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
  }

  // Best-effort read of whatever the server answers within the socket
  // timeout; empty on timeout/close. The fuzz leg only cares that the
  // daemon answered *something* coded or closed the connection — never
  // that it parsed.
  std::string TryRead() {
    char buffer[4096];
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    return n > 0 ? std::string(buffer, static_cast<size_t>(n))
                 : std::string();
  }

 private:
  int fd_ = -1;
  std::unique_ptr<MessageReader> reader_;
};

// Sends `request` and returns the reply. A transport error fails the
// current test with its Status and yields a null document (which is not
// ok and has no fields), instead of aborting in Result::value().
inline JsonValue CallOrFail(Client& client, const JsonValue& request) {
  Result<JsonValue> reply = client.Call(request);
  if (!reply.ok()) {
    ADD_FAILURE() << request.Dump() << ": " << reply.status();
    return JsonValue();
  }
  return std::move(reply).value();
}

// Convenience builders for the common requests.
inline JsonValue Req(const char* cmd) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::String(cmd));
  return request;
}

inline JsonValue Req(const char* cmd, const std::string& tenant) {
  JsonValue request = Req(cmd);
  request.Set("tenant", JsonValue::String(tenant));
  return request;
}

// ok must be present and true / false.
inline bool IsOk(const JsonValue& response) {
  const JsonValue* ok = response.Find("ok");
  return ok != nullptr && ok->is_bool() && ok->bool_value();
}

inline std::string ErrorCode(const JsonValue& response) {
  const JsonValue* code = response.Find("code");
  return code != nullptr && code->is_string() ? code->string_value()
                                              : std::string();
}

}  // namespace testing
}  // namespace caesar

#endif  // CAESAR_TESTS_CAESARD_HARNESS_H_
