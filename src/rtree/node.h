#ifndef NWC_RTREE_NODE_H_
#define NWC_RTREE_NODE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "geometry/point.h"
#include "geometry/rect.h"
#include "storage/page.h"

namespace nwc {

/// Structure-of-arrays storage for the data objects of one leaf node.
///
/// Coordinates live in separate contiguous x[] / y[] arrays (with ids in a
/// parallel array) so the window-containment and batched-distance kernels
/// in src/simd/ can stream them with aligned-width vector loads instead of
/// gathering through an array-of-structs. The bulk loader packs each
/// leaf's objects in Z-order, which the insertion paths preserve only
/// incidentally — query results never depend on intra-leaf order.
///
/// The API keeps the shape of the std::vector<DataObject> it replaced:
/// operator[] yields a DataObject (by value — there is no contiguous
/// DataObject to point into), and iteration works with range-for and the
/// standard algorithms via a value-yielding random-access iterator. The
/// cold mutation paths (R* split / reinsert / condense) round-trip through
/// ToVector()/Assign() rather than mutating in place.
class LeafObjects {
 public:
  LeafObjects() = default;

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  void reserve(size_t n) {
    xs_.reserve(n);
    ys_.reserve(n);
    ids_.reserve(n);
  }

  void clear() {
    xs_.clear();
    ys_.clear();
    ids_.clear();
  }

  void push_back(const DataObject& obj) {
    xs_.push_back(obj.pos.x);
    ys_.push_back(obj.pos.y);
    ids_.push_back(obj.id);
  }

  DataObject operator[](size_t i) const { return DataObject{ids_[i], Point{xs_[i], ys_[i]}}; }
  Point position(size_t i) const { return Point{xs_[i], ys_[i]}; }
  ObjectId id(size_t i) const { return ids_[i]; }

  /// Removes the object at index i, preserving the order of the rest.
  void EraseAt(size_t i) {
    xs_.erase(xs_.begin() + static_cast<ptrdiff_t>(i));
    ys_.erase(ys_.begin() + static_cast<ptrdiff_t>(i));
    ids_.erase(ids_.begin() + static_cast<ptrdiff_t>(i));
  }

  /// Replaces the contents with `objects`, in order.
  void Assign(const std::vector<DataObject>& objects) {
    clear();
    reserve(objects.size());
    for (const DataObject& obj : objects) push_back(obj);
  }

  /// Materializes the objects as the AoS vector the mutation paths edit.
  std::vector<DataObject> ToVector() const {
    std::vector<DataObject> objects;
    objects.reserve(size());
    for (size_t i = 0; i < size(); ++i) objects.push_back((*this)[i]);
    return objects;
  }

  /// Raw coordinate/id arrays — the kernel-facing view.
  const double* xs() const { return xs_.data(); }
  const double* ys() const { return ys_.data(); }
  const ObjectId* ids() const { return ids_.data(); }

  /// Per-array lengths. Always equal through the public API; exposed so
  /// ValidateTree can prove the arrays have not desynced (a corruption no
  /// query path would notice until it read one element past a short array).
  size_t xs_size() const { return xs_.size(); }
  size_t ys_size() const { return ys_.size(); }
  size_t ids_size() const { return ids_.size(); }

  /// Random-access const iterator yielding DataObject by value.
  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = DataObject;
    using difference_type = ptrdiff_t;
    using pointer = void;
    using reference = DataObject;

    const_iterator() = default;
    const_iterator(const LeafObjects* owner, size_t index) : owner_(owner), index_(index) {}

    DataObject operator*() const { return (*owner_)[index_]; }
    DataObject operator[](difference_type n) const {
      return (*owner_)[index_ + static_cast<size_t>(n)];
    }

    const_iterator& operator++() { ++index_; return *this; }
    const_iterator operator++(int) { const_iterator tmp = *this; ++index_; return tmp; }
    const_iterator& operator--() { --index_; return *this; }
    const_iterator operator--(int) { const_iterator tmp = *this; --index_; return tmp; }
    const_iterator& operator+=(difference_type n) {
      index_ = static_cast<size_t>(static_cast<difference_type>(index_) + n);
      return *this;
    }
    const_iterator& operator-=(difference_type n) { return *this += -n; }
    friend const_iterator operator+(const_iterator it, difference_type n) { return it += n; }
    friend const_iterator operator+(difference_type n, const_iterator it) { return it += n; }
    friend const_iterator operator-(const_iterator it, difference_type n) { return it -= n; }
    friend difference_type operator-(const const_iterator& a, const const_iterator& b) {
      return static_cast<difference_type>(a.index_) - static_cast<difference_type>(b.index_);
    }

    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.index_ == b.index_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.index_ != b.index_;
    }
    friend bool operator<(const const_iterator& a, const const_iterator& b) {
      return a.index_ < b.index_;
    }
    friend bool operator>(const const_iterator& a, const const_iterator& b) {
      return a.index_ > b.index_;
    }
    friend bool operator<=(const const_iterator& a, const const_iterator& b) {
      return a.index_ <= b.index_;
    }
    friend bool operator>=(const const_iterator& a, const const_iterator& b) {
      return a.index_ >= b.index_;
    }

   private:
    const LeafObjects* owner_ = nullptr;
    size_t index_ = 0;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

 private:
  friend struct LeafObjectsTestAccess;

  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<ObjectId> ids_;
};

/// Test-only backdoor for corrupting a LeafObjects to prove ValidateTree
/// catches desynced arrays. Production code must never touch this.
struct LeafObjectsTestAccess {
  static std::vector<double>& Xs(LeafObjects& objects) { return objects.xs_; }
  static std::vector<double>& Ys(LeafObjects& objects) { return objects.ys_; }
  static std::vector<ObjectId>& Ids(LeafObjects& objects) { return objects.ids_; }
};

/// Identifier of an R*-tree node. A node occupies one simulated page, so
/// node ids double as the page ids the read probe (and the fault drill)
/// sees.
using NodeId = PageId;

/// Sentinel for "no node" (e.g., the root's parent).
inline constexpr NodeId kInvalidNodeId = kInvalidPageId;

/// An entry of an internal node: the MBR of a child subtree plus its id.
struct ChildEntry {
  Rect mbr;
  NodeId child = kInvalidNodeId;
};

/// One R*-tree node. Leaf nodes (level 0) store data objects; internal
/// nodes store child entries. Exactly one of the two vectors is non-empty.
///
/// Levels count upward from the leaves: leaves are level 0 and the root has
/// the highest level. The paper's "depth" convention (root depth 0, leaves
/// depth h) converts as depth = tree_height - level.
struct RTreeNode {
  NodeId id = kInvalidNodeId;
  NodeId parent = kInvalidNodeId;
  int level = 0;

  LeafObjects objects;                ///< populated when level == 0
  std::vector<ChildEntry> children;   ///< populated when level > 0

  bool is_leaf() const { return level == 0; }

  /// Number of entries (objects for leaves, children for internal nodes).
  size_t entry_count() const { return is_leaf() ? objects.size() : children.size(); }

  /// Recomputes the MBR from the current entries.
  Rect ComputeMbr() const {
    Rect mbr = Rect::Empty();
    if (is_leaf()) {
      for (size_t i = 0; i < objects.size(); ++i) mbr.Expand(objects.position(i));
    } else {
      for (const ChildEntry& entry : children) mbr.Expand(entry.mbr);
    }
    return mbr;
  }
};

}  // namespace nwc

#endif  // NWC_RTREE_NODE_H_
