#ifndef NWC_SERVICE_SHARD_ROUTER_H_
#define NWC_SERVICE_SHARD_ROUTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/rstar_tree.h"
#include "service/query_backend.h"
#include "service/query_service.h"
#include "service/session.h"
#include "service/snapshot.h"
#include "service/thread_pool.h"

namespace nwc {

/// Z-order (Morton) key of `q` within `space`: each coordinate is
/// normalized to a 16-bit integer grid over the space and the two are
/// bit-interleaved (x in the even bits). Points outside `space` clamp to
/// its boundary, NaN clamps to 0, and a degenerate (zero-extent) axis maps
/// to 0. Spatially close points get close keys, which is what lets the
/// router cut the key space into contiguous, spatially compact shards.
uint64_t ZOrderKey(const Point& q, const Rect& space);

/// End of the Z-order key space: ZOrderKey interleaves two 16-bit grid
/// coordinates, so every key is < 2^32.
inline constexpr uint64_t kZOrderKeyEnd = 1ull << 32;

/// Halo width in units of the max window: each shard's tree replicates
/// every object within (kHaloFactor * max_window_length,
/// kHaloFactor * max_window_width) of its owned region. Factor 1 makes
/// single-group answers exact (a group anchored at an owned object fits
/// inside one window); 3 additionally keeps kNWC greedy blocking chains of
/// depth <= 2 locally visible (see RouteKnwc).
inline constexpr double kHaloFactor = 3.0;

/// Sizing and semantics for a ShardRouter.
struct ShardRouterConfig {
  /// In-process shard count (>= 1). 1 degenerates to a single-instance
  /// service behind the router interface (no halo, no window cap).
  size_t num_shards = 1;

  /// Largest window extents any routed query may carry. These bound the
  /// halo width, so they are a *correctness* parameter: a query whose
  /// l/w exceeds them is rejected with FailedPrecondition rather than
  /// answered from trees whose replication no longer covers it. Must be
  /// > 0 when num_shards > 1.
  double max_window_length = 0.0;
  double max_window_width = 0.0;

  /// Per-shard execution stack configuration, the same for every shard
  /// (`service.fault_plan` included). `session.grid_space`, when empty, is
  /// widened to the global data space so every shard grids the same
  /// geometry.
  ServiceConfig service;
  SessionConfig session;
  RTreeOptions tree;

  /// Router executor threads serving the async submits (each routed
  /// request occupies one while it waits on shard futures; shard services
  /// have their own workers, so routing never self-deadlocks).
  size_t router_threads = 2;
  size_t router_queue_capacity = 256;

  Status Validate() const;
};

/// Decomposes the Z-order key range [key_lo, key_hi) into a conservative
/// cover of axis-aligned rects in data space: every point whose
/// ZOrderKey(p, space) falls in the range lies in some rect. The cover is
/// built from maximal aligned quadtree blocks of the Morton interval
/// (O(levels) blocks per boundary, ~100 worst case); blocks touching the
/// grid boundary extend to +-infinity because out-of-space points clamp
/// into boundary cells. Superset rects are sound everywhere they are used:
/// for routing they only *lower* the lower bound, for halo membership they
/// only *add* replication. Exposed for unit tests.
std::vector<Rect> ZOrderRangeRegion(uint64_t key_lo, uint64_t key_hi, const Rect& space);

/// Equal-count shard boundaries over `keys` (unsorted input, consumed):
/// returns num_shards + 1 strictly increasing values with front() == 0 and
/// back() == kZOrderKeyEnd; shard s owns keys in [b[s], b[s+1]). With
/// fewer distinct keys than shards, trailing shards own empty ranges.
/// Exposed for unit tests.
std::vector<uint64_t> EqualCountKeyBoundaries(std::vector<uint64_t> keys, size_t num_shards);

/// Spatially sharded serving: one SnapshotStore plus a QueryService over
/// it per Z-order range shard, behind the same QueryBackend interface the
/// network layer speaks.
///
/// **Partitioning.** Object positions map to Morton keys over the global
/// data space (ZOrderKey above); the key space is split into num_shards
/// contiguous ranges with equal object counts at build time.
/// Ownership is by key comparison — exact and stable under updates — while
/// each range's *geometric region* (a conservative rect cover, fixed at
/// build) drives routing bounds and replication.
///
/// **Halo replication.** Each shard's tree holds its owned objects plus
/// every object within the halo of its region. A window of extents
/// (l, w) <= (max_window_length, max_window_width) containing an owned
/// object therefore lies entirely inside the shard's tree, so the shard's
/// local NWC answer over groups anchored at owned objects is exact, and
/// the min over shards is the global optimum.
///
/// **NWC routing.** Shards are visited in ascending order of
/// lb_s = min over region rects of MINDIST(q, rect.Inflated(l, w)) — a
/// lower bound on the distance of any group anchored in shard s under all
/// four measures — and the chain stops once lb_s exceeds the best distance
/// found (a query typically touches one or two shards).
///
/// **kNWC.** Scattered to every shard with the caller's (k, m); the merged
/// candidate groups are re-run through the greedy selection ascending by
/// (distance, member ids), which drops cross-shard duplicates (overlap of
/// a group with itself is n > m). Exact whenever the greedy rejection
/// chains stay within the halo (depth <= kHaloFactor - 1 windows); deeper
/// chains are the same adversarial tie-like structures the single-tree
/// engine already documents as approximate.
///
/// **Failures.** A routed request answers exactly or fails: when a shard
/// execution it needs fails (injected fault, shed, deadline, cancel), the
/// request fails with that shard's typed status, the first in shard order
/// for a kNWC scatter. The response still carries every node read its
/// shard executions made.
///
/// **Updates.** Each mutation is applied to its owner shard and to every
/// shard whose halo contains the position — the same deterministic rule
/// for inserts and deletes, so replicas never drift. A shard touched by a
/// batch publishes once, owned and replica mutations together. Counts come
/// from the owner shard only; the response epoch is the max per-shard
/// epoch. Shards publish independently, so a query racing an update may
/// observe it on some shards before others (each shard is individually
/// MVCC-consistent); quiesce updates for cross-shard bit-exactness.
///
/// **Metrics.** The router records each routed request once, in its own
/// ServiceMetrics: its latency, the shard reads its response carries, its
/// final status, whether it found a result and, under the service's
/// slow-trace rule, whether it was slow. SnapshotMetrics() and
/// SnapshotLatencyHistogram() report those, with only the result-cache
/// counters, `shed` and `max_queue_depth` taken from the shards.
/// ShardMetrics(s) and the per-shard `nwc_shard_*{shard="s"}` series of
/// AppendPrometheusText() count shard executions, so one routed request may
/// count on several shards there.
///
/// ThreadSafety: every public member may be called from any thread.
class ShardRouter : public QueryBackend {
 public:
  /// Builds the partition, the per-shard index stacks and services, and
  /// the router executor. `objects` is the full dataset (the router
  /// replicates as needed); `config` must validate.
  static Result<std::unique_ptr<ShardRouter>> Open(std::vector<DataObject> objects,
                                                   const ShardRouterConfig& config);

  ~ShardRouter() override;

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Blocking routed execution (the stamped submits run the same code on
  /// the router executor). Deadlines are measured from this call and span
  /// the whole shard chain. An invalid query fails InvalidArgument before
  /// any shard is touched.
  NwcResponse RouteNwc(const NwcRequest& request);
  KnwcResponse RouteKnwc(const KnwcRequest& request);

  // QueryBackend interface. The stamped submits are the router's one
  // async path: `done` runs on the router executor (stamps bracket the
  // whole fan-out), or synchronously with equal stamps once the router is
  // shut down.
  void SubmitNwcAsyncTraced(NwcRequest request, StampedDone<NwcResponse> done) override;
  void SubmitKnwcAsyncTraced(KnwcRequest request, StampedDone<KnwcResponse> done) override;
  UpdateResponse ApplyUpdate(const MutationBatch& mutations) override;

  /// Drains routed requests already accepted, then stops the router
  /// executor and every shard service. Idempotent; later submits fail with
  /// FailedPrecondition responses.
  void Shutdown();

  /// Cancels every routed request currently queued on the router executor
  /// or in flight on a shard (each completes with a Cancelled response);
  /// requests submitted afterwards run normally — the same contract as
  /// QueryService::CancelAll.
  void CancelAll();
  MetricsSnapshot SnapshotMetrics() const override;
  LatencyHistogram SnapshotLatencyHistogram() const override;
  std::vector<std::shared_ptr<const QueryTrace>> SlowTraces() const override;
  void AppendPrometheusText(std::string* out) const override;

  size_t num_shards() const { return shards_.size(); }
  const ShardRouterConfig& config() const { return config_; }
  /// The global data space the partition was built over.
  const Rect& space() const { return space_; }

  /// Shard owning `p` (by Z-order key; total — every point has an owner).
  size_t OwnerShard(const Point& p) const;
  /// Owner plus every shard whose halo region contains `p`, ascending —
  /// the shards a mutation at `p` is applied to.
  std::vector<size_t> TargetShards(const Point& p) const;

  /// Objects resident in shard `s`'s tree (owned + halo replicas) at build
  /// time, and the owned subset.
  size_t shard_resident_count(size_t s) const { return shards_[s].resident_count; }
  size_t shard_owned_count(size_t s) const { return shards_[s].owned_count; }
  /// Per-shard metrics: shard executions (the request view is
  /// SnapshotMetrics()).
  MetricsSnapshot ShardMetrics(size_t s) const { return shards_[s].service->SnapshotMetrics(); }

 private:
  friend class ShardRouterTestPeer;

  struct Shard {
    uint64_t key_lo = 0;
    uint64_t key_hi = 0;
    std::vector<Rect> region;       ///< conservative cover of the owned range
    std::vector<Rect> halo_region;  ///< region rects inflated by the halo
    Rect halo_bounds;               ///< bbox of halo_region (quick reject)
    std::unique_ptr<SnapshotStore> store;
    std::unique_ptr<QueryService> service;
    size_t owned_count = 0;
    size_t resident_count = 0;
  };

  explicit ShardRouter(ShardRouterConfig config);

  /// Routed execution bound to the cancel epoch captured at submit, so
  /// CancelAll reaches requests still queued on the router executor.
  NwcResponse RouteInternal(const NwcRequest& request, uint64_t cancel_epoch);
  KnwcResponse RouteInternal(const KnwcRequest& request, uint64_t cancel_epoch);

  /// RouteInternal plus the request's one record in metrics_: the path
  /// behind RouteNwc/RouteKnwc and the async submits alike.
  template <typename Response, typename Request>
  Response RouteAndRecord(const Request& request, uint64_t cancel_epoch);

  /// The one async submit path behind both query kinds: hands
  /// RouteAndRecord to the router executor, stamping around it.
  template <typename Response, typename Request>
  void SubmitRouted(Request request, StampedDone<Response> done);

  /// True when `cancel_epoch` (captured at submit) has been overtaken by a
  /// CancelAll call.
  bool Cancelled(uint64_t cancel_epoch) const {
    return cancel_epoch_.load(std::memory_order_relaxed) != cancel_epoch;
  }

  /// True when shard `s`'s halo region contains `p`.
  bool HaloContains(const Shard& shard, const Point& p) const;

  /// Lower bound on the distance (any measure) of a group anchored at an
  /// object owned by shard `s`, for a query at `q` with window (l, w).
  double ShardLowerBound(const Shard& shard, const Point& q, double l, double w) const;

  /// Remaining deadline budget to hand a shard, given the request budget
  /// and microseconds already spent routing. Returns false when the
  /// budget is exhausted (caller answers DeadlineExceeded).
  static bool RemainingBudget(uint64_t deadline_micros, uint64_t elapsed_micros, uint64_t* out);

  ShardRouterConfig config_;
  Rect space_ = Rect::Empty();
  std::vector<uint64_t> boundaries_;  ///< num_shards + 1 ascending keys
  double halo_x_ = 0.0;
  double halo_y_ = 0.0;
  std::vector<Shard> shards_;
  ServiceMetrics metrics_;  ///< one record per routed request
  std::atomic<uint64_t> cancel_epoch_{0};
  // Declared last so routed jobs drain (and stop touching shards_) before
  // the shard services are torn down.
  ThreadPool router_pool_;
};

}  // namespace nwc

#endif  // NWC_SERVICE_SHARD_ROUTER_H_
