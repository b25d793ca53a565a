#ifndef NWC_COMMON_IO_STATS_H_
#define NWC_COMMON_IO_STATS_H_

#include <cstdint>
#include <functional>
#include <utility>

namespace nwc {

/// Which query phase triggered a simulated page read. The paper's cost
/// metric is the number of R*-tree nodes visited; the breakdown lets the
/// benchmarks attribute cost to the distance-browsing traversal vs. the
/// window queries issued per object (Sec. 3.2) and lets tests assert that a
/// specific optimization saved I/O in the phase it targets.
enum class IoPhase {
  /// Node expanded by the best-first traversal of the NWC/kNWC algorithm.
  kTraversal = 0,
  /// Node visited while answering a window (range) query.
  kWindowQuery = 1,
};

/// Accumulates simulated I/O cost. One R*-tree node access == one page read,
/// matching the paper's "number of R*-tree nodes visited" metric (Sec. 5).
/// The counter deliberately has no notion of a buffer pool: the paper counts
/// every visit, including re-visits by successive window queries.
///
/// ThreadSafety: NOT thread-safe. The service layer gives every in-flight
/// query its own IoCounter; never share one counter across concurrent
/// queries.
class IoCounter {
 public:
  IoCounter() = default;

  /// Records one node access in the given phase as one read. `page` is
  /// the accessed page/node id, handed to the read probe.
  void OnNodeAccess(IoPhase phase, uint32_t page = kUnknownPage) {
    if (phase == IoPhase::kTraversal) {
      ++traversal_reads_;
    } else {
      ++window_query_reads_;
    }
    if (read_probe_) read_probe_(page);
  }

  /// Installs a read probe invoked with the page id of every access. This
  /// is the fault-injection seam: the query service binds a FaultInjector
  /// here and routes injected failures into the query's QueryControl,
  /// where the search loops observe them as a typed IoError (see storage/
  /// fault_injector.h and common/cancel.h).
  void SetReadProbe(std::function<void(uint32_t)> probe) { read_probe_ = std::move(probe); }

  /// Placeholder page id recorded when the caller did not supply one.
  static constexpr uint32_t kUnknownPage = 0xFFFFFFFFu;

  /// Node accesses across both phases (the paper's metric).
  uint64_t query_total() const { return traversal_reads_ + window_query_reads_; }
  uint64_t traversal_reads() const { return traversal_reads_; }
  uint64_t window_query_reads() const { return window_query_reads_; }

  /// Merges another counter's accumulated counts into this one (phase
  /// reads add; the read probe is unaffected). This is how the benchmark
  /// drivers roll per-query counters up into an aggregate without losing
  /// the per-phase breakdown.
  void Add(const IoCounter& other) {
    traversal_reads_ += other.traversal_reads_;
    window_query_reads_ += other.window_query_reads_;
  }

 private:
  uint64_t traversal_reads_ = 0;
  uint64_t window_query_reads_ = 0;
  std::function<void(uint32_t)> read_probe_;
};

}  // namespace nwc

#endif  // NWC_COMMON_IO_STATS_H_
