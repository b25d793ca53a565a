#include "rtree/queries.h"

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

}  // namespace nwc
