#ifndef NWC_COMMON_CANCEL_H_
#define NWC_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/status.h"

namespace nwc {

/// Cooperative per-query stop control: deadline, external cancellation, and
/// sticky injected/storage faults, surfaced as one typed Status.
///
/// A default-constructed control is *disarmed*: ShouldStop() is a single
/// predictable branch, so threading it through the search hot paths costs
/// nothing when no deadline, cancellation source, or fault hook is in play
/// (the same null-object discipline as QueryTrace). Arming any of the three
/// sources switches ShouldStop() to the real checks.
///
/// The three stop sources, in the priority order ShouldStop() applies them:
///   1. a fault reported through ReportFault() (e.g. an injected page-read
///      failure) — sticky, first report wins;
///   2. external cancellation via an epoch cell (SetCancelCell): the query
///      stops when the shared atomic no longer holds the value captured at
///      submit time — this is how QueryService::CancelAll() reaches every
///      in-flight and queued query without per-query bookkeeping;
///   3. the deadline — steady_clock by default, or an injected test clock
///      (SetClock) so deadline behavior is deterministic under test.
///
/// Once any source fires, the control is *stopped*: status() returns the
/// typed error (IoError / Cancelled / DeadlineExceeded) and every later
/// ShouldStop() returns true immediately. Engines translate a stopped
/// control into a non-OK Result, so a stopped query can never surface a
/// truncated result set as success.
///
/// ThreadSafety: NOT thread-safe — one control per in-flight query, exactly
/// like IoCounter and QueryTrace. The shared NullControl() instance is safe
/// from any thread because it is never armed and therefore never writes.
/// The cancel cell itself is an atomic owned by the caller and may be
/// flipped from any thread.
class QueryControl {
 public:
  /// Disarmed control: ShouldStop() is one branch, status() stays OK.
  QueryControl() = default;

  QueryControl(QueryControl&&) = default;
  QueryControl& operator=(QueryControl&&) = default;
  QueryControl(const QueryControl&) = delete;
  QueryControl& operator=(const QueryControl&) = delete;

  /// Arms an absolute deadline on the real (steady) clock.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
    armed_ = true;
  }

  /// Arms external cancellation: the query stops once `*cell` no longer
  /// holds `expected_epoch`. The cell must outlive the control; a raw
  /// relaxed load per check keeps the armed path cheap.
  void SetCancelCell(const std::atomic<uint64_t>* cell, uint64_t expected_epoch) {
    cancel_cell_ = cell;
    expected_epoch_ = expected_epoch;
    armed_ = true;
  }

  /// Replaces the deadline clock with a deterministic test clock reporting
  /// nanoseconds on its own timeline; pair with SetClockDeadlineNs().
  void SetClock(std::function<uint64_t()> clock_ns) { clock_ns_ = std::move(clock_ns); }

  /// Arms a deadline measured on the injected test clock (SetClock).
  void SetClockDeadlineNs(uint64_t deadline_ns) {
    clock_deadline_ns_ = deadline_ns;
    has_clock_deadline_ = true;
    armed_ = true;
  }

  /// Reports a fault (non-OK status) from a lower layer — typically an
  /// injected page-read failure. The first fault wins and is sticky; the
  /// query observes it at its next checkpoint (or, since stopped() is set
  /// immediately, at the engine's final status translation). An OK status
  /// is ignored.
  void ReportFault(Status status) {
    if (status.ok()) return;
    armed_ = true;
    if (stopped_) return;
    stopped_ = true;
    status_ = std::move(status);
  }

  /// Cooperative checkpoint, called from the search expansion loop and the
  /// window-query walks. Returns true once the query must stop; status()
  /// then carries the reason. Disarmed controls return false after a
  /// single branch.
  bool ShouldStop() {
    if (!armed_) return false;
    return ShouldStopArmed();
  }

  /// True once any stop source has fired (without running the checks).
  bool stopped() const { return stopped_; }

  /// OK until stopped; then IoError / Cancelled / DeadlineExceeded.
  const Status& status() const { return status_; }

 private:
  bool ShouldStopArmed();

  bool armed_ = false;
  bool stopped_ = false;
  bool has_deadline_ = false;
  bool has_clock_deadline_ = false;
  Status status_;
  std::chrono::steady_clock::time_point deadline_{};
  const std::atomic<uint64_t>* cancel_cell_ = nullptr;
  uint64_t expected_epoch_ = 0;
  std::function<uint64_t()> clock_ns_;  // test clock; empty -> steady_clock
  uint64_t clock_deadline_ns_ = 0;
};

/// The shared disarmed control. Code holding a nullable QueryControl*
/// rebinds it once (`QueryControl& c = control ? *control : NullControl();`)
/// so every checkpoint is a plain call on a disarmed instance.
QueryControl& NullControl();

}  // namespace nwc

#endif  // NWC_COMMON_CANCEL_H_
