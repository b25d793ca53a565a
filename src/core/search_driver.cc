#include "core/search_driver.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <optional>

#include "core/distance_measures.h"
#include "core/search_region.h"
#include "geometry/quadrant.h"
#include "rtree/queries.h"
#include "simd/kernels.h"

namespace nwc::internal {

namespace {

// Queue key of the best-first traversal: one 128-bit integer whose
// unsigned order is the traversal's strict total order.
//   bits 127..64  the distance's IEEE-754 bits. Distances are sqrt of a
//                 sum of squares (finite, >= 0 and never -0.0) or +inf for
//                 an empty MBR, so bit order is value order.
//   bit  63       0 for a node, 1 for an object: nodes win distance ties,
//                 so every object tied at a distance is queued before the
//                 first of them pops.
//   bits 62..31   node id or object id: equal-distance nodes pop by node
//                 id and equal-distance objects by object id, whatever the
//                 tree layout.
//   bits 30..0    payload that only separates entries equal in all of the
//                 above: a run item's index in its node, or a heap head's
//                 run block.
using QueueKey = __uint128_t;

constexpr int kKindShift = 63;
constexpr int kIdShift = 31;
constexpr QueueKey kPayloadMask = (QueueKey{1} << kIdShift) - 1;

QueueKey MakeKey(double distance, bool is_object, uint32_t id, uint32_t payload) {
  assert(!std::isnan(distance) && !std::signbit(distance));
  assert(payload <= kPayloadMask);
  return (QueueKey{std::bit_cast<uint64_t>(distance)} << 64) |
         (QueueKey{is_object} << kKindShift) | (QueueKey{id} << kIdShift) | payload;
}

uint32_t PayloadOf(QueueKey key) { return static_cast<uint32_t>(key & kPayloadMask); }
QueueKey WithPayload(QueueKey key, uint32_t payload) { return (key & ~kPayloadMask) | payload; }

// The priority queue of the best-first traversal as a merge of sorted runs.
// Expanding a node sorts its entries once into a run; only each run's head
// sits in a binary min-heap of 16-byte keys, and a pop advances its run
// with one replace-top sift-down. Because the key order is strict and
// total, the merged pop sequence is exactly the order one heap over every
// entry would produce.
//
// A run item carries only its key; the popped entry's MBR or DataObject is
// read from the expanded node, which the tree keeps unchanged for the
// query. Runs live in fixed blocks of `block_size` items (the tree's fan-
// out) and an exhausted run's block is reused, so memory follows the live
// runs, not the entries ever pushed (Tarantool's R-tree allocates its
// neighbour-queue entries the same way).
class RunQueue {
 public:
  // A popped entry: entry `index` of `node` (a child of an internal node
  // or an object of a leaf).
  struct Entry {
    const RTreeNode* node;
    uint32_t index;
    bool is_object;
  };

  void Reset(size_t block_size) {
    heads_.clear();
    items_.clear();
    runs_.clear();
    free_blocks_.clear();
    block_size_ = block_size;
    queued_ = 0;
  }

  bool empty() const { return heads_.empty(); }

  // Entries queued across all runs.
  size_t size() const { return queued_; }

  // Queues the entries of the expanded `node`; `distances[i]` is entry i's
  // distance from q.
  void PushRun(const RTreeNode& node, const double* distances) {
    const size_t count = node.entry_count();
    if (count == 0) return;
    if (count > block_size_) GrowBlocks(count);
    uint32_t block;
    if (!free_blocks_.empty()) {
      block = free_blocks_.back();
      free_blocks_.pop_back();
    } else {
      block = static_cast<uint32_t>(runs_.size());
      runs_.emplace_back();
      items_.resize(items_.size() + block_size_);
    }
    QueueKey* items = &items_[block * block_size_];
    const bool is_leaf = node.is_leaf();
    for (size_t i = 0; i < count; ++i) {
      const uint32_t id = is_leaf ? node.objects.id(i) : node.children[i].child;
      items[i] = MakeKey(distances[i], is_leaf, id, static_cast<uint32_t>(i));
    }
    std::sort(items, items + count);
    runs_[block] = Run{&node, 0, static_cast<uint32_t>(count)};
    PushHead(WithPayload(items[0], block));
    queued_ += count;
  }

  // Removes and returns the least entry. Requires !empty().
  Entry Pop() {
    const uint32_t block = PayloadOf(heads_.front());
    Run& run = runs_[block];
    const QueueKey* items = &items_[block * block_size_];
    const QueueKey item = items[run.next];
    const Entry entry{run.node, PayloadOf(item), ((item >> kKindShift) & 1) != 0};
    if (++run.next < run.end) {
      SiftDown(WithPayload(items[run.next], block));
    } else {
      free_blocks_.push_back(block);
      const QueueKey last = heads_.back();
      heads_.pop_back();
      if (!heads_.empty()) SiftDown(last);
    }
    --queued_;
    return entry;
  }

 private:
  struct Run {
    const RTreeNode* node;
    uint32_t next;
    uint32_t end;
  };

  void PushHead(QueueKey key) {
    size_t i = heads_.size();
    heads_.push_back(key);
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (heads_[parent] < key) break;
      heads_[i] = heads_[parent];
      i = parent;
    }
    heads_[i] = key;
  }

  // Puts `key` at the top and restores the heap below it.
  void SiftDown(QueueKey key) {
    const size_t n = heads_.size();
    size_t i = 0;
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heads_[child + 1] < heads_[child]) ++child;
      if (key < heads_[child]) break;
      heads_[i] = heads_[child];
      i = child;
    }
    heads_[i] = key;
  }

  // Re-lays the blocks out at `block_size` items each, for a node holding
  // more entries than the tree's fan-out.
  void GrowBlocks(size_t block_size) {
    const size_t old_size = block_size_;
    items_.resize(runs_.size() * block_size);
    for (size_t b = runs_.size(); b-- > 0;) {
      const QueueKey* from = items_.data() + b * old_size;
      std::copy_backward(from, from + old_size, items_.data() + b * block_size + old_size);
    }
    block_size_ = block_size;
  }

  std::vector<QueueKey> heads_;  // binary min-heap, one head per live run
  std::vector<QueueKey> items_;  // block b holds run b's sorted items
  std::vector<Run> runs_;        // indexed by block
  std::vector<uint32_t> free_blocks_;
  size_t block_size_ = 0;
  size_t queued_ = 0;
};

// A window-query hit mapped into the object's first-quadrant frame.
struct Member {
  double frame_y = 0.0;
  double dist = 0.0;  // distance to q (reflection-invariant)
  DataObject object;
};

// Evaluates every window generated by `object`, stored in `leaf` (Sec.
// 3.2): builds the (possibly reduced) search region, runs the window query,
// and scans candidate top edges in ascending frame-y with a sliding lower
// bound.
void ProcessObject(const RStarTree& tree, const IwpIndex* iwp, const DensityGrid* grid,
                   const NwcQuery& query, const NwcOptions& options, IoCounter* io,
                   GroupSink& sink, QueryTrace& trace, QueryControl& control,
                   const DataObject& object, NodeId leaf) {
  const Point& q = query.q;
  const double l = query.length;
  const double w = query.width;

  const QuadrantTransform transform = QuadrantTransform::MapToFirstQuadrant(q, object.pos);
  const Point p_frame = transform.Apply(object.pos);

  // SRR: skip the object or shrink its search region's far side using the
  // current pruning distance; otherwise keep the full w above p.
  double top_extent = w;
  if (options.use_srr) {
    std::optional<double> shrunk;
    {
      TraceSpanScope srr_span(trace, SpanKind::kSrrCheck, io);
      shrunk = SrrTopExtent(q, p_frame, l, w, sink.PruneDistance());
    }
    if (!shrunk.has_value()) {
      trace.Count(TraceCounter::kPrunedSrr);
      return;
    }
    top_extent = *shrunk;
  }
  // The world-space region is anchored exactly at p's coordinates (not
  // reflected back from the frame, which rounds and can exclude p itself
  // from its own window query).
  const Rect sr_world = SearchRegionWorld(object.pos, l, w, top_extent, transform);

  // DEP: cancel the window query when the grid proves the region cannot
  // hold n objects (Algorithm 2 applied to SR'_p).
  if (options.use_dep) {
    bool cancelled;
    {
      TraceSpanScope dep_span(trace, SpanKind::kDepCheck, io);
      cancelled = grid->CountUpperBound(sr_world) < query.n;
    }
    if (cancelled) {
      trace.Count(TraceCounter::kPrunedDepWindow);
      return;
    }
  }

  // The window query for SR'_p — incremental (Algorithm 3) or root-based.
  trace.Count(TraceCounter::kWindowQueries);
  thread_local std::vector<DataObject> hits;
  hits.clear();
  {
    TraceSpanScope wq_span(trace, options.use_iwp ? SpanKind::kIwpProbe : SpanKind::kWindowQuery,
                           io);
    if (options.use_iwp) {
      iwp->WindowQuery(tree, leaf, sr_world, &hits, io, IoPhase::kWindowQuery, &control);
    } else {
      const NodeId root = tree.root();
      WindowQueryFrom(tree, {&root, 1}, sr_world, &hits, io, IoPhase::kWindowQuery, &control);
    }
    trace.SetDetail(wq_span.id(), static_cast<int64_t>(hits.size()));
  }
  // A stopped walk returns truncated hits; never evaluate them as windows.
  if (control.stopped()) return;
  if (hits.size() < query.n) return;

  thread_local std::vector<Member> members;
  members.clear();
  thread_local std::vector<double> hit_distances;
  hit_distances.resize(hits.size());
  simd::BatchDistancePoints(q, hits.data(), hits.size(), hit_distances.data());
  for (size_t i = 0; i < hits.size(); ++i) {
    const Point hit_frame = transform.Apply(hits[i].pos);
    members.push_back(Member{hit_frame.y, hit_distances[i], hits[i]});
  }
  // Ascending frame-y; ties by id for determinism across schemes.
  std::sort(members.begin(), members.end(), [](const Member& a, const Member& b) {
    if (a.frame_y != b.frame_y) return a.frame_y < b.frame_y;
    return a.object.id < b.object.id;
  });

  // Candidate top edges are members at or above p (frame-y >= y_p); those
  // below p are skipped as edges but still count as window members. Each
  // distinct frame-y is one window; the run of equal values is processed
  // at its last index so the member count is complete.
  size_t low = 0;  // first member with frame_y >= top - w
  for (size_t j = 0; j < members.size(); ++j) {
    if (members[j].frame_y < p_frame.y) continue;
    if (j + 1 < members.size() && members[j + 1].frame_y == members[j].frame_y) continue;
    const double top = members[j].frame_y;
    while (members[low].frame_y < top - w) ++low;
    const size_t count = j - low + 1;
    if (count < query.n) continue;
    trace.Count(TraceCounter::kWindowsEvaluated);

    // MINDIST gate (Sec. 2.1 Step 3): the window cannot beat the current
    // pruning distance.
    const Rect window_frame{p_frame.x - l, top - w, p_frame.x, top};
    if (MinDist(q, window_frame) >= sink.PruneDistance()) continue;

    // The n members closest to q.
    thread_local std::vector<const Member*> scratch;
    scratch.clear();
    for (size_t i = low; i <= j; ++i) scratch.push_back(&members[i]);
    std::nth_element(scratch.begin(), scratch.begin() + static_cast<ptrdiff_t>(query.n - 1),
                     scratch.end(),
                     [](const Member* a, const Member* b) { return a->dist < b->dist; });
    std::vector<DataObject> group;
    group.reserve(query.n);
    for (size_t i = 0; i < query.n; ++i) group.push_back(scratch[i]->object);

    const double d = GroupDistance(q, group, l, w, options.measure);
    if (d < sink.PruneDistance()) {
      trace.Count(TraceCounter::kGroupsOffered);
      sink.Offer(std::move(group), d);
    }
  }
}

// Expands one index/leaf node of the best-first traversal, applying the
// DIP / DEP node-pruning tests before paying the page read.
void ExpandNode(const RStarTree& tree, const DensityGrid* grid, const NwcQuery& query,
                const NwcOptions& options, IoCounter* io, GroupSink& sink, QueryTrace& trace,
                NodeId node_id, const Rect& mbr, RunQueue& queue) {
  TraceSpanScope browse_span(trace, SpanKind::kBrowseNode, io, static_cast<int64_t>(node_id));

  // DIP: prune the node when no window generated by its objects can beat
  // the pruning distance (the complement of Eq. 7's region PR).
  if (options.use_dip) {
    bool pruned;
    {
      TraceSpanScope dip_span(trace, SpanKind::kDipCheck, io);
      pruned = GeneratedWindowLowerBound(query.q, mbr, query.length, query.width) >=
               sink.PruneDistance();
    }
    if (pruned) {
      trace.Count(TraceCounter::kPrunedDip);
      return;
    }
  }
  // DEP: prune the node when its extended MBR cannot hold n objects.
  if (options.use_dep) {
    bool pruned;
    {
      TraceSpanScope dep_span(trace, SpanKind::kDepCheck, io);
      pruned = grid->CountUpperBound(
                   DepExtendedMbr(query.q, mbr, query.length, query.width)) < query.n;
    }
    if (pruned) {
      trace.Count(TraceCounter::kPrunedDepNode);
      return;
    }
  }

  const RTreeNode& node = tree.AccessNode(node_id, io, IoPhase::kTraversal);
  trace.Count(TraceCounter::kNodesExpanded);
  thread_local std::vector<double> keys;
  keys.resize(node.entry_count());
  if (node.is_leaf()) {
    simd::BatchDistance(query.q, node.objects.xs(), node.objects.ys(), node.objects.size(),
                        keys.data());
  } else if (!node.children.empty()) {
    simd::BatchMinDist(query.q, &node.children.data()->mbr, sizeof(ChildEntry),
                       node.children.size(), keys.data());
  }
  queue.PushRun(node, keys.data());
  trace.NoteHeapSize(queue.size());
}

}  // namespace

void RunNwcSearch(const RStarTree& tree, const IwpIndex* iwp, const DensityGrid* grid,
                  const NwcQuery& query, const NwcOptions& options, IoCounter* io,
                  GroupSink& sink, QueryTrace& trace, QueryControl& control) {
  assert(!options.use_iwp || iwp != nullptr);
  assert(!options.use_dep || grid != nullptr);

  // Cooperative checkpoint: one poll before the root expansion and before
  // every queue pop bounds the work done after a deadline/cancel/fault to
  // a single entry's processing.
  const auto should_stop = [&] {
    if (!control.ShouldStop()) return false;
    trace.Count(TraceCounter::kAborted);
    TraceSpanScope abort_span(trace, SpanKind::kAbort, io,
                              static_cast<int64_t>(control.status().code()));
    return true;
  };

  // Per-worker queue, cleared per query: its vectors keep their capacity,
  // so steady-state searches allocate nothing.
  thread_local RunQueue queue;
  queue.Reset(static_cast<size_t>(tree.options().max_entries));
  if (should_stop()) return;
  ExpandNode(tree, grid, query, options, io, sink, trace, tree.root(), tree.bounds(), queue);

  while (!queue.empty()) {
    if (should_stop()) break;
    const RunQueue::Entry entry = queue.Pop();
    if (entry.is_object) {
      const DataObject object = entry.node->objects[entry.index];
      trace.Count(TraceCounter::kObjectsBrowsed);
      TraceSpanScope candidate_span(trace, SpanKind::kCandidate, io,
                                    static_cast<int64_t>(object.id));
      ProcessObject(tree, iwp, grid, query, options, io, sink, trace, control, object,
                    entry.node->id);
      continue;
    }
    const ChildEntry& child = entry.node->children[entry.index];
    ExpandNode(tree, grid, query, options, io, sink, trace, child.child, child.mbr, queue);
  }
}

}  // namespace nwc::internal
