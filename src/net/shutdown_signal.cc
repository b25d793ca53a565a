#include "net/shutdown_signal.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>

namespace nwc {
namespace {

// File-scope state: a signal handler can only reach globals, and the
// handler must stay async-signal-safe (flag store + pipe write, nothing
// else).
std::atomic<bool> g_requested{false};
int g_pipe_read = -1;
int g_pipe_write = -1;

extern "C" void HandleShutdownSignal(int /*signum*/) {
  g_requested.store(true, std::memory_order_release);
  const char byte = 1;
  // The pipe is O_NONBLOCK; a full pipe means a wakeup is already pending.
  [[maybe_unused]] const ssize_t n = ::write(g_pipe_write, &byte, 1);
}

}  // namespace

ShutdownSignal& ShutdownSignal::Instance() {
  static ShutdownSignal instance;
  return instance;
}

Status ShutdownSignal::Install() {
  static std::once_flag once;
  static Status install_status = Status::Ok();
  std::call_once(once, [] {
    int fds[2];
    if (::pipe(fds) != 0) {
      install_status = Status::IoError(std::string("pipe: ") + std::strerror(errno));
      return;
    }
    for (const int fd : fds) {
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    }
    g_pipe_read = fds[0];
    g_pipe_write = fds[1];
    struct sigaction action {};
    action.sa_handler = HandleShutdownSignal;
    ::sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    if (::sigaction(SIGINT, &action, nullptr) != 0 ||
        ::sigaction(SIGTERM, &action, nullptr) != 0) {
      install_status = Status::IoError(std::string("sigaction: ") + std::strerror(errno));
    }
  });
  return install_status;
}

bool ShutdownSignal::requested() const { return g_requested.load(std::memory_order_acquire); }

int ShutdownSignal::fd() const { return g_pipe_read; }

void ShutdownSignal::WaitUntilRequested() const {
  while (!requested()) {
    pollfd pfd{};
    pfd.fd = g_pipe_read;
    pfd.events = POLLIN;
    // Finite timeout: robust even if the wakeup byte is consumed elsewhere.
    ::poll(&pfd, 1, 200);
  }
}

}  // namespace nwc
