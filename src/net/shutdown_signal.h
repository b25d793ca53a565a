#ifndef NWC_NET_SHUTDOWN_SIGNAL_H_
#define NWC_NET_SHUTDOWN_SIGNAL_H_

#include "common/status.h"

namespace nwc {

/// Process-wide SIGINT/SIGTERM latch for graceful drain, built on the
/// self-pipe pattern: the (async-signal-safe) handler sets a flag and
/// writes one byte to a pipe, and normal threads observe the request via
/// requested(), poll on fd(), or block in WaitUntilRequested().
///
/// A process has one signal disposition, so this is a singleton; Install()
/// is idempotent and the pipe lives for the process lifetime. A second
/// signal after the first keeps the latch set (no forced-exit escalation —
/// drains here are bounded by request deadlines).
///
/// ThreadSafety: every method may be called from any thread; only the
/// internal handler runs in signal context.
class ShutdownSignal {
 public:
  static ShutdownSignal& Instance();

  /// Installs the SIGINT and SIGTERM handlers (idempotent).
  Status Install();

  /// True once a signal has been delivered.
  bool requested() const;

  /// Read end of the self-pipe: poll/epoll it for readability to learn of
  /// the signal without spinning. Valid after Install().
  int fd() const;

  /// Blocks until requested() turns true.
  void WaitUntilRequested() const;

 private:
  ShutdownSignal() = default;
};

}  // namespace nwc

#endif  // NWC_NET_SHUTDOWN_SIGNAL_H_
