#ifndef NWC_SERVICE_RESULT_CACHE_H_
#define NWC_SERVICE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/nwc_types.h"

namespace nwc {

/// Canonical, hashable identity of one NWC/kNWC request. Two requests map
/// to the same key exactly when the engines are guaranteed to return
/// bit-identical results for them:
///
///  - the query kind (NWC vs kNWC) and every numeric parameter (q, l, w,
///    n, and for kNWC k and m) compared by exact bit pattern, except that
///    -0.0 is folded to +0.0 first. Sign-folding the zero is the *only*
///    sound coordinate canonicalization: the engines are symmetric under
///    it (IEEE arithmetic treats -0.0 == +0.0 everywhere the search
///    compares or subtracts coordinates), whereas a full quadrant
///    reflection of q moves the query relative to the actual data and
///    changes the answer.
///  - the optimization scheme and distance measure. Every preset returns
///    a group at the same *distance*, but equal-distance ties can break
///    differently between schemes, so serving a Star result for a Plain
///    request would not be bit-exact. Keeping the scheme in the key keeps
///    the cache's contract exact instead of merely optimal.
///  - the data epoch the answer was computed against (published epochs
///    start at 1; 0 is free for callers with no store). Pinning the epoch into the key makes publish-vs-cache
///    races structurally impossible: a result computed on epoch N and
///    inserted after epoch N+1 published can only ever be found by a
///    reader still pinned to N — for whom it is exactly right.
struct ResultCacheKey {
  uint8_t kind = 0;       ///< 0 = NWC, 1 = kNWC
  uint8_t scheme = 0;     ///< packed use_srr/dip/dep/iwp bits
  uint8_t measure = 0;    ///< DistanceMeasure
  uint64_t qx_bits = 0;   ///< bit pattern of q.x (-0.0 folded to +0.0)
  uint64_t qy_bits = 0;
  uint64_t l_bits = 0;
  uint64_t w_bits = 0;
  uint64_t n = 0;
  uint64_t k = 0;  ///< 0 for NWC
  uint64_t m = 0;  ///< 0 for NWC
  uint64_t data_epoch = 0;  ///< snapshot epoch (0 = no store)

  static ResultCacheKey ForNwc(const NwcQuery& query, const NwcOptions& options,
                               uint64_t data_epoch = 0);
  static ResultCacheKey ForKnwc(const KnwcQuery& query, const NwcOptions& options,
                                uint64_t data_epoch = 0);

  /// FNV-1a over the packed fields; also used to pick the shard.
  uint64_t Hash() const;

  friend bool operator==(const ResultCacheKey& a, const ResultCacheKey& b) {
    return a.kind == b.kind && a.scheme == b.scheme && a.measure == b.measure &&
           a.qx_bits == b.qx_bits && a.qy_bits == b.qy_bits && a.l_bits == b.l_bits &&
           a.w_bits == b.w_bits && a.n == b.n && a.k == b.k && a.m == b.m &&
           a.data_epoch == b.data_epoch;
  }
};

/// Sharded, thread-safe LRU cache of exact NWC/kNWC query results.
///
/// Requests are canonicalized into ResultCacheKeys; a hit returns a copy
/// of the stored result, bit-identical to what the engines would compute
/// (the service only inserts results of queries that completed with an OK
/// status — aborted or failed queries never populate the cache). Negative
/// results (found == false / zero groups) are cached too: they are exact
/// answers and often the most expensive to recompute.
///
/// Capacity is accounted in approximate bytes (entry struct + stored
/// objects); each shard owns capacity_bytes / shards and evicts its own
/// LRU tail independently. Sharding bounds lock contention: workers
/// serving different queries almost always lock different shards.
///
/// There is one invalidation rule: the data epoch is part of every key, so
/// a publish makes every older answer unreachable, and LRU eviction
/// reclaims those entries as new ones arrive. An update that publishes
/// nothing keeps the epoch and every cached answer.
///
/// ThreadSafety: all methods are safe to call concurrently; each shard is
/// guarded by its own mutex.
class ResultCache {
 public:
  /// Aggregated counters across all shards. hits/misses/insertions/
  /// evictions are monotonic (until ResetStats); entries/bytes are
  /// point-in-time gauges.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;
  };

  /// A cache of at most `capacity_bytes` (approximate), split over
  /// `shards` independent LRU shards. `shards` is rounded up to 1.
  explicit ResultCache(size_t capacity_bytes, size_t shards = 8);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Probes for an exact NWC result. On a hit, copies it into `out` and
  /// refreshes the entry's LRU position. Counts one hit or one miss.
  /// `data_epoch` pins the probe to one snapshot epoch (0 = no store).
  bool LookupNwc(const NwcQuery& query, const NwcOptions& options, NwcResult* out,
                 uint64_t data_epoch = 0);

  /// Stores an NWC result under the canonicalized key (replacing any
  /// previous entry), evicting LRU entries while the shard is over budget.
  /// Entries larger than a whole shard are not admitted.
  void InsertNwc(const NwcQuery& query, const NwcOptions& options, const NwcResult& result,
                 uint64_t data_epoch = 0);

  bool LookupKnwc(const KnwcQuery& query, const NwcOptions& options, KnwcResult* out,
                  uint64_t data_epoch = 0);
  void InsertKnwc(const KnwcQuery& query, const NwcOptions& options, const KnwcResult& result,
                  uint64_t data_epoch = 0);

  /// Aggregated counters + gauges across shards.
  Stats GetStats() const;

  /// Zeroes hits/misses/insertions/evictions (entries stay cached).
  void ResetStats();

  size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Entry {
    ResultCacheKey key;
    size_t bytes = 0;
    bool is_knwc = false;
    NwcResult nwc;
    KnwcResult knwc;
  };

  struct KeyHash {
    size_t operator()(const ResultCacheKey& key) const {
      return static_cast<size_t>(key.Hash());
    }
  };

  struct Shard {
    mutable std::mutex mu;
    // Most recently used at the front.
    std::list<Entry> lru;
    std::unordered_map<ResultCacheKey, std::list<Entry>::iterator, KeyHash> index;
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  Shard& ShardFor(const ResultCacheKey& key) {
    return *shards_[key.Hash() % shards_.size()];
  }

  /// Shared hit/miss machinery; `fill` copies the entry's payload out.
  template <typename Fill>
  bool LookupImpl(const ResultCacheKey& key, const Fill& fill);

  void InsertImpl(const ResultCacheKey& key, Entry entry);

  size_t capacity_bytes_;
  size_t shard_capacity_bytes_;
  // unique_ptr: Shard holds a mutex and must not move.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace nwc

#endif  // NWC_SERVICE_RESULT_CACHE_H_
