#include "service/shard_router.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <limits>
#include <thread>
#include <utility>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "geometry/morton.h"

namespace nwc {
namespace {

// Extension applied to region rects that touch the Z-order grid boundary:
// out-of-space points clamp into boundary cells, so the boundary cells
// geometrically own an unbounded slab. Large but far from overflow when
// inflated by window- or halo-sized amounts.
constexpr double kUnboundedSide = 1e300;

// Normalizes `value` within [lo, hi] onto the 16-bit grid, clamping
// out-of-range and non-finite inputs.
uint32_t GridCoord(double value, double lo, double hi) {
  const double extent = hi - lo;
  if (!(extent > 0.0)) return 0;  // degenerate or inverted axis
  double t = (value - lo) / extent;
  if (!(t > 0.0)) t = 0.0;  // also catches NaN
  if (t > 1.0) t = 1.0;
  return static_cast<uint32_t>(t * 65535.0);
}

// Data-space interval covered by grid cells [g_lo, g_hi) on one axis.
// GridCoord maps v -> floor(clamp01((v - lo) / extent) * 65535), so cell g
// covers [lo + g/65535 * extent, lo + (g+1)/65535 * extent]; cell 0 also
// absorbs everything below the space and cell 65535 everything above (and a
// degenerate axis maps every value to cell 0).
void CellSpan(uint64_t g_lo, uint64_t g_hi, double lo, double hi, double* out_lo,
              double* out_hi) {
  const double extent = hi - lo;
  if (!(extent > 0.0)) {  // degenerate axis: every value lands in cell 0
    *out_lo = -kUnboundedSide;
    *out_hi = g_lo == 0 ? kUnboundedSide : -kUnboundedSide;
    return;
  }
  *out_lo = g_lo == 0 ? -kUnboundedSide : lo + extent * static_cast<double>(g_lo) / 65535.0;
  *out_hi = g_hi >= 65536 ? kUnboundedSide : lo + extent * static_cast<double>(g_hi) / 65535.0;
}

struct MortonBlock {
  uint64_t start = 0;  // first key of the block
  int level = 0;       // 0 = whole key space; 16 = single cell
};

void DecomposeRange(uint64_t block_start, int level, uint64_t key_lo, uint64_t key_hi,
                    std::vector<MortonBlock>* out) {
  const uint64_t span = 1ull << (2 * (16 - level));
  const uint64_t block_end = block_start + span;
  if (block_end <= key_lo || block_start >= key_hi) return;
  if (key_lo <= block_start && block_end <= key_hi) {
    out->push_back(MortonBlock{block_start, level});
    return;
  }
  const uint64_t child_span = span / 4;
  for (int c = 0; c < 4; ++c) {
    DecomposeRange(block_start + child_span * static_cast<uint64_t>(c), level + 1, key_lo,
                   key_hi, out);
  }
}

// Member ids of a group, sorted — the canonical form used for tie-breaks
// and overlap counting (groups are multisets, so ids may repeat).
std::vector<ObjectId> SortedIds(const std::vector<DataObject>& objects) {
  std::vector<ObjectId> ids;
  ids.reserve(objects.size());
  for (const DataObject& o : objects) ids.push_back(o.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Multiset intersection size of two sorted id vectors.
size_t OverlapCount(const std::vector<ObjectId>& a, const std::vector<ObjectId>& b) {
  size_t i = 0, j = 0, common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return common;
}

void PromCounter(std::string* out, const char* name, const char* help) {
  *out += StrFormat("# HELP %s %s\n# TYPE %s counter\n", name, help, name);
}

void PromGauge(std::string* out, const char* name, const char* help) {
  *out += StrFormat("# HELP %s %s\n# TYPE %s gauge\n", name, help, name);
}

void PromSeries(std::string* out, const char* name, size_t shard, uint64_t value) {
  *out += StrFormat("%s{shard=\"%zu\"} %llu\n", name, shard,
                    static_cast<unsigned long long>(value));
}

}  // namespace

Status ShardRouterConfig::Validate() const {
  if (num_shards == 0) return Status::InvalidArgument("num_shards must be >= 1");
  if (num_shards > 1) {
    if (!(max_window_length > 0.0) || !(max_window_width > 0.0)) {
      return Status::InvalidArgument(
          "sharded serving requires positive max_window_length/max_window_width (the halo "
          "basis)");
    }
  }
  if (router_threads == 0) return Status::InvalidArgument("router_threads must be >= 1");
  if (router_queue_capacity == 0) {
    return Status::InvalidArgument("router_queue_capacity must be >= 1");
  }
  Status status = service.Validate();
  if (!status.ok()) return status;
  status = session.Validate();
  if (!status.ok()) return status;
  return tree.Validate();
}

uint64_t ZOrderKey(const Point& q, const Rect& space) {
  return MortonKey16(GridCoord(q.x, space.min_x, space.max_x),
                     GridCoord(q.y, space.min_y, space.max_y));
}

std::vector<Rect> ZOrderRangeRegion(uint64_t key_lo, uint64_t key_hi, const Rect& space) {
  std::vector<Rect> region;
  if (key_lo >= key_hi) return region;
  key_hi = std::min(key_hi, kZOrderKeyEnd);
  std::vector<MortonBlock> blocks;
  DecomposeRange(0, 0, key_lo, key_hi, &blocks);
  region.reserve(blocks.size());
  for (const MortonBlock& block : blocks) {
    const uint64_t cell_span = 1ull << (16 - block.level);
    // Keys are below kZOrderKeyEnd = 2^32, so the narrowing is lossless.
    const uint64_t gx = CompactBits16(static_cast<uint32_t>(block.start));
    const uint64_t gy = CompactBits16(static_cast<uint32_t>(block.start >> 1));
    Rect r;
    CellSpan(gx, gx + cell_span, space.min_x, space.max_x, &r.min_x, &r.max_x);
    CellSpan(gy, gy + cell_span, space.min_y, space.max_y, &r.min_y, &r.max_y);
    region.push_back(r);
  }
  return region;
}

std::vector<uint64_t> EqualCountKeyBoundaries(std::vector<uint64_t> keys, size_t num_shards) {
  std::sort(keys.begin(), keys.end());
  std::vector<uint64_t> boundaries(num_shards + 1);
  boundaries[0] = 0;
  boundaries[num_shards] = kZOrderKeyEnd;
  for (size_t s = 1; s < num_shards; ++s) {
    uint64_t candidate;
    if (keys.empty()) {
      candidate = kZOrderKeyEnd / num_shards * s;  // uniform fallback
    } else {
      candidate = keys[keys.size() * s / num_shards];
    }
    // Keep the sequence strictly increasing even with heavy duplicates
    // (later shards then own empty or near-empty ranges).
    candidate = std::max(candidate, boundaries[s - 1] + 1);
    candidate = std::min(candidate, kZOrderKeyEnd - (num_shards - s));
    boundaries[s] = candidate;
  }
  return boundaries;
}

ShardRouter::ShardRouter(ShardRouterConfig config)
    : config_(std::move(config)),
      router_pool_(config_.router_threads, config_.router_queue_capacity) {}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Open(std::vector<DataObject> objects,
                                                       const ShardRouterConfig& config) {
  Status status = config.Validate();
  if (!status.ok()) return status;

  std::unique_ptr<ShardRouter> router(new ShardRouter(config));

  Rect space = Rect::Empty();
  for (const DataObject& object : objects) space.Expand(object.pos);
  router->space_ = space;

  const size_t num_shards = config.num_shards;
  router->halo_x_ = num_shards > 1 ? kHaloFactor * config.max_window_length : 0.0;
  router->halo_y_ = num_shards > 1 ? kHaloFactor * config.max_window_width : 0.0;

  std::vector<uint64_t> keys;
  keys.reserve(objects.size());
  for (const DataObject& object : objects) keys.push_back(ZOrderKey(object.pos, space));
  router->boundaries_ = EqualCountKeyBoundaries(keys, num_shards);

  router->shards_.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    Shard& shard = router->shards_[s];
    shard.key_lo = router->boundaries_[s];
    shard.key_hi = router->boundaries_[s + 1];
    shard.region = ZOrderRangeRegion(shard.key_lo, shard.key_hi, space);
    shard.halo_bounds = Rect::Empty();
    shard.halo_region.reserve(shard.region.size());
    for (const Rect& r : shard.region) {
      const Rect inflated = r.Inflated(router->halo_x_, router->halo_y_);
      shard.halo_region.push_back(inflated);
      shard.halo_bounds.Expand(inflated);
    }
  }

  // Membership: every object goes to its owner's tree, plus the tree of
  // every shard whose halo contains it.
  std::vector<std::vector<DataObject>> members(num_shards);
  for (size_t i = 0; i < objects.size(); ++i) {
    const size_t owner = router->OwnerShard(objects[i].pos);
    members[owner].push_back(objects[i]);
    router->shards_[owner].owned_count++;
    for (size_t s = 0; s < num_shards; ++s) {
      if (s == owner) continue;
      if (router->HaloContains(router->shards_[s], objects[i].pos)) {
        members[s].push_back(objects[i]);
      }
    }
  }
  std::vector<DataObject>().swap(objects);  // every copy a tree needs is in `members`

  // Insert-build the shard trees concurrently. Each tree depends only on
  // its own member list, so the trees are the same on any number of
  // threads. A member list is freed as soon as its tree is built.
  std::vector<RStarTree> trees;
  trees.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) trees.emplace_back(config.tree);
  std::atomic<size_t> next_shard{0};
  const auto build_trees = [&] {
    for (size_t s = next_shard++; s < num_shards; s = next_shard++) {
      for (const DataObject& object : members[s]) trees[s].Insert(object);
      std::vector<DataObject>().swap(members[s]);
    }
  };
  const size_t build_threads =
      std::min<size_t>(num_shards, std::max(1u, std::thread::hardware_concurrency()));
  // std::async futures join in their destructors and rethrow a builder's
  // exception from get(), so no path leaves a builder running.
  std::vector<std::future<void>> builders;
  for (size_t t = 1; t < build_threads; ++t) {
    builders.push_back(std::async(std::launch::async, build_trees));
  }
  build_trees();
  for (std::future<void>& builder : builders) builder.get();

  for (size_t s = 0; s < num_shards; ++s) {
    Shard& shard = router->shards_[s];
    shard.resident_count = trees[s].size();

    SessionConfig session_config = config.session;
    // One grid geometry across shards: the global space, not the shard's
    // own (halo-widened) bounds.
    if (session_config.grid_space.IsEmpty() && !space.IsEmpty()) {
      session_config.grid_space = space;
    }

    auto store = SnapshotStore::Open(std::move(trees[s]), {session_config});
    if (!store.ok()) return store.status();
    shard.store = std::move(store).value();
    shard.service = std::make_unique<QueryService>(*shard.store, config.service);
  }

  return router;
}

ShardRouter::~ShardRouter() = default;

size_t ShardRouter::OwnerShard(const Point& p) const {
  const uint64_t key = ZOrderKey(p, space_);
  // boundaries_ is strictly increasing with front() == 0, so the owner is
  // the last boundary <= key.
  const auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), key);
  return static_cast<size_t>(it - boundaries_.begin()) - 1;
}

bool ShardRouter::HaloContains(const Shard& shard, const Point& p) const {
  if (!shard.halo_bounds.Contains(p)) return false;
  for (const Rect& r : shard.halo_region) {
    if (r.Contains(p)) return true;
  }
  return false;
}

std::vector<size_t> ShardRouter::TargetShards(const Point& p) const {
  const size_t owner = OwnerShard(p);
  std::vector<size_t> targets;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (s == owner || HaloContains(shards_[s], p)) targets.push_back(s);
  }
  return targets;
}

double ShardRouter::ShardLowerBound(const Shard& shard, const Point& q, double l,
                                    double w) const {
  double lb = std::numeric_limits<double>::infinity();
  for (const Rect& r : shard.region) {
    lb = std::min(lb, MinDist(q, r.Inflated(l, w)));
  }
  return lb;
}

bool ShardRouter::RemainingBudget(uint64_t deadline_micros, uint64_t elapsed_micros,
                                  uint64_t* out) {
  if (deadline_micros == 0) {
    *out = 0;  // no request deadline; shard services apply their default
    return true;
  }
  if (elapsed_micros >= deadline_micros) return false;
  *out = deadline_micros - elapsed_micros;
  return true;
}

NwcResponse ShardRouter::RouteNwc(const NwcRequest& request) {
  return RouteAndRecord<NwcResponse>(request, cancel_epoch_.load(std::memory_order_relaxed));
}

KnwcResponse ShardRouter::RouteKnwc(const KnwcRequest& request) {
  return RouteAndRecord<KnwcResponse>(request, cancel_epoch_.load(std::memory_order_relaxed));
}

template <typename Response, typename Request>
Response ShardRouter::RouteAndRecord(const Request& request, uint64_t cancel_epoch) {
  Response response = RouteInternal(request, cancel_epoch);
  metrics_.RecordQuery(response.latency_micros, response.traversal_reads,
                       response.window_query_reads, response.status.code(),
                       HasAnswer(response));
  if (config_.service.trace_slow_queries &&
      response.latency_micros >= config_.service.slow_trace_us) {
    metrics_.RecordSlowQuery();
  }
  return response;
}

NwcResponse ShardRouter::RouteInternal(const NwcRequest& request, uint64_t cancel_epoch) {
  Stopwatch timer;
  NwcResponse best;
  // Validated once, up front: an invalid query is the caller's error, not
  // a per-shard failure to count on every shard.
  best.status = request.query.Validate();
  if (!best.status.ok()) return best;

  if (Cancelled(cancel_epoch)) {
    best.status = Status::Cancelled("request cancelled");
    return best;
  }
  if (shards_.size() > 1 && (request.query.length > config_.max_window_length ||
                             request.query.width > config_.max_window_width)) {
    best.status = Status::FailedPrecondition(
        "window exceeds the sharded serving bound (max_window_length/width): halo "
        "replication does not cover it");
    best.latency_micros = timer.ElapsedMicros();
    return best;
  }

  // Visit shards ascending by their lower bound; stop once the bound
  // exceeds the best distance in hand.
  std::vector<std::pair<double, size_t>> order;
  order.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    order.emplace_back(
        ShardLowerBound(shards_[s], request.query.q, request.query.length, request.query.width),
        s);
  }
  std::sort(order.begin(), order.end());

  std::vector<ObjectId> best_ids;
  size_t queried = 0;
  size_t result_cache_hits = 0;

  for (const auto& [lb, s] : order) {
    if (best.result.found && lb > best.result.distance) break;
    if (Cancelled(cancel_epoch)) {
      best.status = Status::Cancelled("request cancelled");
      best.result = NwcResult{};
      best.latency_micros = timer.ElapsedMicros();
      return best;
    }

    uint64_t budget = 0;
    if (!RemainingBudget(request.deadline_micros, timer.ElapsedMicros(), &budget)) {
      best.status = Status::DeadlineExceeded("routed query ran out of deadline budget");
      best.result = NwcResult{};
      best.latency_micros = timer.ElapsedMicros();
      return best;
    }

    NwcRequest shard_request = request;
    shard_request.deadline_micros = budget;
    NwcResponse response = shards_[s].service->SubmitNwc(std::move(shard_request)).get();
    ++queried;
    best.traversal_reads += response.traversal_reads;
    best.window_query_reads += response.window_query_reads;

    if (!response.status.ok()) {
      best.status = response.status;
      best.result = NwcResult{};
      best.latency_micros = timer.ElapsedMicros();
      return best;
    }
    if (response.result_cache_hit) ++result_cache_hits;

    if (response.result.found) {
      std::vector<ObjectId> ids = SortedIds(response.result.objects);
      const bool better =
          !best.result.found || response.result.distance < best.result.distance ||
          (response.result.distance == best.result.distance && ids < best_ids);
      if (better) {
        best.result = std::move(response.result);
        best_ids = std::move(ids);
      }
    }
  }

  best.result_cache_hit = queried > 0 && result_cache_hits == queried;
  best.latency_micros = timer.ElapsedMicros();
  return best;
}

KnwcResponse ShardRouter::RouteInternal(const KnwcRequest& request, uint64_t cancel_epoch) {
  Stopwatch timer;
  KnwcResponse merged;
  merged.status = request.query.Validate();
  if (!merged.status.ok()) return merged;

  if (Cancelled(cancel_epoch)) {
    merged.status = Status::Cancelled("request cancelled");
    return merged;
  }
  if (shards_.size() > 1 && (request.query.base.length > config_.max_window_length ||
                             request.query.base.width > config_.max_window_width)) {
    merged.status = Status::FailedPrecondition(
        "window exceeds the sharded serving bound (max_window_length/width): halo "
        "replication does not cover it");
    merged.latency_micros = timer.ElapsedMicros();
    return merged;
  }

  uint64_t budget = 0;
  if (!RemainingBudget(request.deadline_micros, timer.ElapsedMicros(), &budget)) {
    merged.status = Status::DeadlineExceeded("routed query ran out of deadline budget");
    merged.latency_micros = timer.ElapsedMicros();
    return merged;
  }

  // Scatter to every shard with the caller's (k, m); gather, then re-run
  // the greedy selection over the merged candidates.
  std::vector<std::future<KnwcResponse>> futures;
  futures.reserve(shards_.size());
  for (Shard& shard : shards_) {
    KnwcRequest shard_request = request;
    shard_request.deadline_micros = budget;
    futures.push_back(shard.service->SubmitKnwc(std::move(shard_request)));
  }

  struct Candidate {
    NwcGroup group;
    std::vector<ObjectId> ids;
  };
  std::vector<Candidate> candidates;
  size_t result_cache_hits = 0;

  // Every future is drained, so no shard job outlives the request and
  // every shard's reads are counted; the first failure in shard order
  // becomes the request's status.
  for (std::future<KnwcResponse>& future : futures) {
    KnwcResponse response = future.get();
    merged.traversal_reads += response.traversal_reads;
    merged.window_query_reads += response.window_query_reads;
    if (!merged.status.ok()) continue;
    if (!response.status.ok()) {
      merged.status = response.status;
      continue;
    }
    if (response.result_cache_hit) ++result_cache_hits;
    for (NwcGroup& group : response.result.groups) {
      Candidate candidate;
      candidate.ids = SortedIds(group.objects);
      candidate.group = std::move(group);
      candidates.push_back(std::move(candidate));
    }
  }

  if (!merged.status.ok()) {
    merged.latency_micros = timer.ElapsedMicros();
    return merged;
  }

  // Greedy selection ascending by (distance, member ids): identical
  // cross-shard duplicates self-eliminate (a group overlaps itself in n
  // members, and Validate guarantees m < n).
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    if (a.group.distance != b.group.distance) return a.group.distance < b.group.distance;
    return a.ids < b.ids;
  });
  std::vector<const Candidate*> selected;
  for (const Candidate& candidate : candidates) {
    bool compatible = true;
    for (const Candidate* chosen : selected) {
      if (OverlapCount(candidate.ids, chosen->ids) > request.query.m) {
        compatible = false;
        break;
      }
    }
    if (compatible) selected.push_back(&candidate);
    if (selected.size() == request.query.k) break;
  }
  merged.result.groups.reserve(selected.size());
  for (const Candidate* chosen : selected) merged.result.groups.push_back(chosen->group);

  merged.result_cache_hit = result_cache_hits == futures.size();
  merged.latency_micros = timer.ElapsedMicros();
  return merged;
}

template <typename Response, typename Request>
void ShardRouter::SubmitRouted(Request request, StampedDone<Response> done) {
  const uint64_t enqueue_us = SteadyNowMicros();
  auto shared_done = std::make_shared<StampedDone<Response>>(std::move(done));
  const uint64_t epoch = cancel_epoch_.load(std::memory_order_relaxed);
  const bool accepted = router_pool_.Submit(
      [this, request = std::move(request), shared_done, enqueue_us, epoch](size_t) {
        AsyncTiming timing{enqueue_us, SteadyNowMicros(), 0};
        Response response = RouteAndRecord<Response>(request, epoch);
        timing.finish_us = SteadyNowMicros();
        (*shared_done)(std::move(response), timing);
      });
  if (!accepted) {
    Response response;
    response.status = Status::FailedPrecondition("router is shut down");
    const uint64_t now = SteadyNowMicros();
    (*shared_done)(std::move(response), AsyncTiming{now, now, now});
  }
}

void ShardRouter::SubmitNwcAsyncTraced(NwcRequest request, StampedDone<NwcResponse> done) {
  SubmitRouted<NwcResponse>(std::move(request), std::move(done));
}

void ShardRouter::SubmitKnwcAsyncTraced(KnwcRequest request, StampedDone<KnwcResponse> done) {
  SubmitRouted<KnwcResponse>(std::move(request), std::move(done));
}

void ShardRouter::Shutdown() {
  router_pool_.Shutdown();
  for (Shard& shard : shards_) shard.service->Shutdown();
}

void ShardRouter::CancelAll() {
  cancel_epoch_.fetch_add(1, std::memory_order_relaxed);
  for (Shard& shard : shards_) shard.service->CancelAll();
}

UpdateResponse ShardRouter::ApplyUpdate(const MutationBatch& mutations) {
  UpdateResponse response;
  Stopwatch timer;
  // Checked whole before the split: no shard applies part of a bad batch.
  response.status = CheckMutationBatch(mutations);
  if (!response.status.ok()) {
    response.latency_micros = timer.ElapsedMicros();
    return response;
  }

  // Split the batch: owned mutations carry the authoritative counts;
  // replica mutations keep halo copies in lockstep (same deterministic
  // target rule for inserts and deletes, so replicas never drift).
  std::vector<MutationBatch> owned(shards_.size());
  std::vector<MutationBatch> replicas(shards_.size());
  for (const Mutation& mutation : mutations) {
    const size_t owner = OwnerShard(mutation.object.pos);
    owned[owner].push_back(mutation);
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (s == owner) continue;
      if (HaloContains(shards_[s], mutation.object.pos)) replicas[s].push_back(mutation);
    }
  }

  for (size_t s = 0; s < shards_.size(); ++s) {
    if (owned[s].empty() && replicas[s].empty()) continue;
    // Replicas go to the writer stack unpublished; the owned batch's
    // ApplyUpdate then publishes both in ONE epoch (and invalidates the
    // shard's cache), so no reader sees owned objects without their halo
    // copies. A replica delete missing is expected exactly when the owner
    // also missed (the object never existed), so Apply's NotFound — its
    // only error — is dropped.
    if (!replicas[s].empty()) shards_[s].store->Apply(replicas[s]);
    const UpdateResponse shard_response = shards_[s].service->ApplyUpdate(owned[s]);
    response.applied_inserts += shard_response.applied_inserts;
    response.applied_deletes += shard_response.applied_deletes;
    response.delete_misses += shard_response.delete_misses;
    response.epoch = std::max(response.epoch, shard_response.epoch);
    if (!shard_response.status.ok() && shard_response.status.code() != StatusCode::kNotFound) {
      response.status = shard_response.status;
    }
  }
  if (response.status.ok() && response.delete_misses > 0) {
    response.status = Status::NotFound(
        StrFormat("%llu delete(s) missed", static_cast<unsigned long long>(
                                               response.delete_misses)));
  }
  response.latency_micros = timer.ElapsedMicros();
  return response;
}

MetricsSnapshot ShardRouter::SnapshotMetrics() const {
  MetricsSnapshot total = metrics_.Snapshot();
  for (const Shard& shard : shards_) {
    const MetricsSnapshot s = shard.service->SnapshotMetrics();
    total.shed += s.shed;
    total.max_queue_depth = std::max(total.max_queue_depth, s.max_queue_depth);
    total.result_cache_hits += s.result_cache_hits;
    total.result_cache_misses += s.result_cache_misses;
    total.result_cache_evictions += s.result_cache_evictions;
    total.result_cache_entries += s.result_cache_entries;
    total.result_cache_bytes += s.result_cache_bytes;
  }
  return total;
}

LatencyHistogram ShardRouter::SnapshotLatencyHistogram() const {
  return metrics_.LatencySnapshot();
}

std::vector<std::shared_ptr<const QueryTrace>> ShardRouter::SlowTraces() const {
  std::vector<std::shared_ptr<const QueryTrace>> traces;
  for (const Shard& shard : shards_) {
    std::vector<std::shared_ptr<const QueryTrace>> shard_traces = shard.service->SlowTraces();
    traces.insert(traces.end(), shard_traces.begin(), shard_traces.end());
  }
  return traces;
}

void ShardRouter::AppendPrometheusText(std::string* out) const {
  // Distinct family names from the aggregate nwc_* block the serving layer
  // renders, so per-shard series never double-count an aggregate.
  std::vector<MetricsSnapshot> snapshots;
  snapshots.reserve(shards_.size());
  for (const Shard& shard : shards_) snapshots.push_back(shard.service->SnapshotMetrics());

  PromCounter(out, "nwc_shard_queries_total", "Completed queries per shard (ok or failed).");
  for (size_t s = 0; s < shards_.size(); ++s) {
    PromSeries(out, "nwc_shard_queries_total", s, snapshots[s].queries);
  }
  PromCounter(out, "nwc_shard_query_failures_total", "Non-OK queries per shard.");
  for (size_t s = 0; s < shards_.size(); ++s) {
    PromSeries(out, "nwc_shard_query_failures_total", s, snapshots[s].failures);
  }
  PromCounter(out, "nwc_shard_load_shed_total",
              "Requests shed past the shed watermark, per shard.");
  for (size_t s = 0; s < shards_.size(); ++s) {
    PromSeries(out, "nwc_shard_load_shed_total", s, snapshots[s].shed);
  }
  PromCounter(out, "nwc_shard_node_reads_total",
              "R*-tree node reads per shard (all query phases).");
  for (size_t s = 0; s < shards_.size(); ++s) {
    PromSeries(out, "nwc_shard_node_reads_total", s, snapshots[s].total_reads());
  }
  PromCounter(out, "nwc_shard_result_cache_hits_total",
              "Queries answered from the shard's result cache.");
  for (size_t s = 0; s < shards_.size(); ++s) {
    PromSeries(out, "nwc_shard_result_cache_hits_total", s, snapshots[s].result_cache_hits);
  }
  PromGauge(out, "nwc_shard_resident_objects",
            "Objects resident in the shard's tree at build (owned + halo replicas).");
  for (size_t s = 0; s < shards_.size(); ++s) {
    PromSeries(out, "nwc_shard_resident_objects", s, shards_[s].resident_count);
  }
  PromGauge(out, "nwc_shard_owned_objects", "Objects owned by the shard at build.");
  for (size_t s = 0; s < shards_.size(); ++s) {
    PromSeries(out, "nwc_shard_owned_objects", s, shards_[s].owned_count);
  }
  PromGauge(out, "nwc_shard_epoch", "Currently published snapshot epoch per shard.");
  for (size_t s = 0; s < shards_.size(); ++s) {
    PromSeries(out, "nwc_shard_epoch", s, shards_[s].store->epoch());
  }
}

}  // namespace nwc
