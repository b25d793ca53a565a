#ifndef NWC_STORAGE_BUFFER_POOL_H_
#define NWC_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <unordered_map>

#ifndef NDEBUG
#include <thread>
#endif

#include "storage/page.h"

namespace nwc {

/// LRU page-buffer simulation.
///
/// The paper's I/O metric counts every node visit (no caching). This class
/// is an *offline ablation model*: bench/micro_rtree replays a query's
/// recorded IoCounter::trace() through it to show how much of the raw
/// node-visit cost a small LRU buffer would absorb for each scheme, which
/// contextualizes the paper's "I/O cost dominates" claim on modern stacks.
/// The serving stack never consults it.
///
/// ThreadSafety: NOT thread-safe — Access() mutates the LRU list on every
/// call (even hits), so a pool belongs to one thread at a time.
///
/// Debug builds enforce the invariant directly: the first Access() binds
/// the pool to the calling thread and every later Access() asserts the
/// same thread, so a shared-pool misuse trips immediately instead of
/// surfacing as silent LRU corruption. Clear() unbinds (a pool may be
/// handed off between threads across a full reset, never concurrently).
class BufferPool {
 public:
  /// Creates a pool holding at most `capacity_pages` pages. A capacity of 0
  /// disables caching (every access misses).
  explicit BufferPool(size_t capacity_pages);

  /// Simulates an access to `page`. Returns true on a hit. On a miss the
  /// page is admitted, evicting the least recently used page if full.
  bool Access(PageId page);

  /// True when `page` currently resides in the pool (does not touch LRU).
  bool Contains(PageId page) const;

  /// Drops all cached pages and resets hit/miss counters.
  void Clear();

  size_t capacity() const { return capacity_; }
  size_t size() const { return lru_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  /// Hit ratio in [0, 1]; 0 when no accesses were made.
  double HitRatio() const;

 private:
#ifndef NDEBUG
  /// Asserts the per-thread ownership invariant (debug builds only).
  void CheckOwner();
#endif

  size_t capacity_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  // Most recently used at the front.
  std::list<PageId> lru_;
  std::unordered_map<PageId, std::list<PageId>::iterator> index_;
#ifndef NDEBUG
  // Owner thread, bound by the first Access() after construction/Clear().
  std::thread::id owner_;
#endif
};

}  // namespace nwc

#endif  // NWC_STORAGE_BUFFER_POOL_H_
