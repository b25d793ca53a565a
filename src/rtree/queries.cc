#include "rtree/queries.h"

#include <algorithm>
#include <cmath>

#include "simd/kernels.h"

namespace nwc {

namespace {

// Shared DFS for window queries, iterative with an explicit stack. The
// recursive formulation used one machine-stack frame (~100 bytes) per tree
// level, which an adversarial or corrupted tree — a chain of one-child
// internal nodes — can stretch into the hundreds of thousands and overflow
// the thread stack. The explicit stack grows on the heap and holds only
// pending sibling ids, and pushing children in reverse preserves the
// recursive visit order exactly (same nodes, same order, same emit order,
// same page charges).
//
// `visit_leaf` is called once per reached leaf. The control (if any) is
// polled before each node access, so a stopped query never pays for
// another page read; the walk then abandons the remaining frontier, same
// as the recursion unwinding without emitting.
//
// An internal node's children are tested against the window by the
// strided intersection kernel, which lists hits in ascending slot order;
// pushing them in reverse keeps the visit order.
//
// The scratch stack and hit list are thread-local because window walks
// never nest on one thread (leaf visitors only append to result buffers).
template <typename VisitLeaf>
void WindowWalk(const RStarTree& tree, NodeId start, const Rect& window, IoCounter* io,
                IoPhase phase, QueryControl* control, const VisitLeaf& visit_leaf) {
  thread_local std::vector<NodeId> stack;
  thread_local std::vector<uint32_t> hits;
  stack.clear();
  stack.push_back(start);
  while (!stack.empty()) {
    const NodeId current = stack.back();
    stack.pop_back();
    if (control != nullptr && control->ShouldStop()) {
      stack.clear();
      return;
    }
    const RTreeNode& n = tree.AccessNode(current, io, phase);
    if (n.is_leaf()) {
      visit_leaf(n);
      continue;
    }
    const std::vector<ChildEntry>& children = n.children;
    hits.resize(children.size());
    const size_t hit_count = children.empty()
                                 ? 0
                                 : simd::CollectIntersecting(&children.data()->mbr,
                                                             sizeof(ChildEntry), children.size(),
                                                             window, hits.data());
    for (size_t i = hit_count; i-- > 0;) stack.push_back(children[hits[i]].child);
  }
}

// Appends the leaf's objects inside `window` to `out`, in ascending slot
// order — the order the pre-SoA linear scan emitted them in.
void CollectLeafHits(const RTreeNode& leaf, const Rect& window, std::vector<DataObject>* out) {
  thread_local std::vector<uint32_t> indices;
  indices.resize(leaf.objects.size());
  const size_t hits = simd::CollectInWindow(leaf.objects.xs(), leaf.objects.ys(),
                                            leaf.objects.size(), window, indices.data());
  for (size_t i = 0; i < hits; ++i) {
    out->push_back(leaf.objects[indices[i]]);
  }
}

}  // namespace

std::vector<DataObject> WindowQuery(const RStarTree& tree, const Rect& window, IoCounter* io,
                                    IoPhase phase, QueryControl* control) {
  std::vector<DataObject> result;
  WindowWalk(tree, tree.root(), window, io, phase, control, [&](const RTreeNode& leaf) {
    CollectLeafHits(leaf, window, &result);
  });
  return result;
}

void WindowQueryFrom(const RStarTree& tree, std::span<const NodeId> start_nodes,
                     const Rect& window, std::vector<DataObject>* out, IoCounter* io,
                     IoPhase phase, QueryControl* control) {
  for (const NodeId start : start_nodes) {
    WindowWalk(tree, start, window, io, phase, control, [&](const RTreeNode& leaf) {
      CollectLeafHits(leaf, window, out);
    });
  }
}

size_t WindowCount(const RStarTree& tree, const Rect& window, IoCounter* io, IoPhase phase,
                   QueryControl* control) {
  size_t count = 0;
  WindowWalk(tree, tree.root(), window, io, phase, control, [&](const RTreeNode& leaf) {
    count += simd::CountInWindow(leaf.objects.xs(), leaf.objects.ys(), leaf.objects.size(),
                                 window);
  });
  return count;
}

std::vector<DataObject> KnnQuery(const RStarTree& tree, const Point& q, size_t k, IoCounter* io,
                                 IoPhase phase) {
  std::vector<DataObject> result;
  if (k == 0) return result;
  DistanceBrowser browser(tree, q, io, phase);
  while (result.size() < k && browser.HasNext()) {
    result.push_back(browser.Next().object);
  }
  return result;
}

DistanceBrowser::DistanceBrowser(const RStarTree& tree, const Point& q, IoCounter* io,
                                 IoPhase phase)
    : tree_(tree), q_(q), io_(io), phase_(phase) {
  QueueEntry root_entry;
  root_entry.distance = 0.0;
  root_entry.is_object = false;
  root_entry.node = tree.root();
  queue_.push(root_entry);
}

void DistanceBrowser::Advance() {
  while (!queue_.empty() && !queue_.top().is_object) {
    const QueueEntry top = queue_.top();
    queue_.pop();
    const RTreeNode& n = tree_.AccessNode(top.node, io_, phase_);
    thread_local std::vector<double> distances;
    if (n.is_leaf()) {
      distances.resize(n.objects.size());
      simd::BatchDistance(q_, n.objects.xs(), n.objects.ys(), n.objects.size(),
                          distances.data());
      for (size_t i = 0; i < n.objects.size(); ++i) {
        QueueEntry entry;
        entry.distance = distances[i];
        entry.is_object = true;
        entry.node = top.node;  // remember the holding leaf
        entry.object = n.objects[i];
        queue_.push(entry);
      }
    } else {
      distances.resize(n.children.size());
      if (!n.children.empty()) {
        simd::BatchMinDist(q_, &n.children.data()->mbr, sizeof(ChildEntry), n.children.size(),
                           distances.data());
      }
      for (size_t i = 0; i < n.children.size(); ++i) {
        QueueEntry entry;
        entry.distance = distances[i];
        entry.is_object = false;
        entry.node = n.children[i].child;
        queue_.push(entry);
      }
    }
  }
}

bool DistanceBrowser::HasNext() {
  Advance();
  return !queue_.empty();
}

DistanceBrowser::BrowseItem DistanceBrowser::Next() {
  Advance();
  const QueueEntry top = queue_.top();
  queue_.pop();
  BrowseItem item;
  item.object = top.object;
  item.distance = top.distance;
  item.leaf = top.node;
  return item;
}

}  // namespace nwc
