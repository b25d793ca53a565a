#ifndef NWC_STORAGE_FAULT_INJECTOR_H_
#define NWC_STORAGE_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/status.h"

namespace nwc {

/// Which deterministic fault schedule an injector follows.
enum class FaultKind : uint8_t {
  kNone = 0,       ///< never faults (the injector is a no-op)
  kEveryNth,       ///< every Nth counted read fails (persistent fault)
  kOnceAt,         ///< exactly read #K fails, once per injector (transient)
  kBernoulli,      ///< each read fails with probability p, seeded (transient)
  kLatencySpike,   ///< every Nth read sleeps spike_micros, none fail
};

/// Stable display name ("none", "every_nth", ...).
const char* FaultKindName(FaultKind kind);

/// A declarative fault-injection schedule. Schedules are fully determined
/// by their parameters (and seed), so a failing run is reproducible from
/// the logged plan alone — see EXPERIMENTS.md for the seed convention.
struct FaultPlan {
  FaultKind kind = FaultKind::kNone;
  /// Period for kEveryNth / kLatencySpike; 1-based read index for kOnceAt.
  uint64_t period = 0;
  /// Per-read failure probability for kBernoulli.
  double probability = 0.0;
  /// RNG seed for kBernoulli (the stream is the injector's own; query
  /// randomness is never consumed).
  uint64_t seed = 0;
  /// Sleep per spiked read for kLatencySpike.
  uint64_t spike_micros = 0;

  bool enabled() const { return kind != FaultKind::kNone; }

  /// Rejects schedules with a zero period / out-of-range probability.
  Status Validate() const;

  /// Canonical spec string ("every:7", "bernoulli:0.05:42", ...), the
  /// inverse of ParseFaultPlan for logging.
  std::string ToSpec() const;

  static FaultPlan None() { return FaultPlan{}; }
  static FaultPlan EveryNth(uint64_t n) {
    return FaultPlan{FaultKind::kEveryNth, n, 0.0, 0, 0};
  }
  static FaultPlan OnceAt(uint64_t k) { return FaultPlan{FaultKind::kOnceAt, k, 0.0, 0, 0}; }
  static FaultPlan Bernoulli(double p, uint64_t seed) {
    return FaultPlan{FaultKind::kBernoulli, 0, p, seed, 0};
  }
  static FaultPlan LatencySpike(uint64_t n, uint64_t spike_micros) {
    return FaultPlan{FaultKind::kLatencySpike, n, 0.0, 0, spike_micros};
  }
};

/// Parses a --inject-faults style spec: "none", "every:N", "once:K",
/// "bernoulli:P[:SEED]", or "spike:N:MICROS".
Result<FaultPlan> ParseFaultPlan(const std::string& spec);

/// Executes a FaultPlan against a stream of simulated page reads.
///
/// The injector is bound to IoCounter::SetReadProbe, so it sees exactly the
/// accesses the paper's metric counts as reads: every node visit, re-visits
/// included. OnRead() returns the typed IoError to inject for
/// that read — the caller routes it into the query's QueryControl, whose
/// checkpoints abort the search; nothing here throws or kills the process.
///
/// Determinism: the fault sequence is a pure function of the plan and the
/// read index (plus the plan seed for kBernoulli), so any observed failure
/// replays from the logged plan spec and read count.
///
/// ThreadSafety: NOT thread-safe — one injector per worker/query stream.
/// QueryService gives each worker its own injector.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan), rng_(plan.seed) {}

  /// Accounts one counted page read and returns OK or the injected fault.
  /// kLatencySpike sleeps here (and still returns OK).
  Status OnRead(uint32_t page);

  /// Restarts the schedule (read counter, once-fired latch, RNG stream).
  void Reset();

  const FaultPlan& plan() const { return plan_; }
  /// Reads observed so far (monotonic until Reset).
  uint64_t reads() const { return reads_; }
  /// Faults returned so far.
  uint64_t faults_injected() const { return faults_; }

 private:
  FaultPlan plan_;
  Rng rng_;
  uint64_t reads_ = 0;
  uint64_t faults_ = 0;
  bool fired_ = false;
};

}  // namespace nwc

#endif  // NWC_STORAGE_FAULT_INJECTOR_H_
