#include "service/result_cache.h"

#include <utility>
#include <vector>

#include "common/float_bits.h"

namespace nwc {
namespace {

uint8_t PackScheme(const NwcOptions& options) {
  return static_cast<uint8_t>((options.use_srr ? 1u : 0u) | (options.use_dip ? 2u : 0u) |
                              (options.use_dep ? 4u : 0u) | (options.use_iwp ? 8u : 0u));
}

}  // namespace

ResultCacheKey ResultCacheKey::ForNwc(const NwcQuery& query, const NwcOptions& options,
                                      uint64_t data_epoch) {
  ResultCacheKey key;
  key.kind = 0;
  key.scheme = PackScheme(options);
  key.measure = static_cast<uint8_t>(options.measure);
  // Keys store the *canonical* bits (-0.0 folded onto +0.0), so both the
  // field-wise operator== and Hash() see one representation per numeric
  // value: +0.0 and -0.0 are one key, as an unordered container requires.
  key.qx_bits = CanonicalDoubleBits(query.q.x);
  key.qy_bits = CanonicalDoubleBits(query.q.y);
  key.l_bits = CanonicalDoubleBits(query.length);
  key.w_bits = CanonicalDoubleBits(query.width);
  key.n = query.n;
  key.data_epoch = data_epoch;
  return key;
}

ResultCacheKey ResultCacheKey::ForKnwc(const KnwcQuery& query, const NwcOptions& options,
                                       uint64_t data_epoch) {
  ResultCacheKey key = ForNwc(query.base, options, data_epoch);
  key.kind = 1;
  key.k = query.k;
  key.m = query.m;
  return key;
}

uint64_t ResultCacheKey::Hash() const {
  // FNV-1a, mixed a field at a time.
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (byte * 8)) & 0xFFu;
      hash *= 1099511628211ull;
    }
  };
  mix(static_cast<uint64_t>(kind) | (static_cast<uint64_t>(scheme) << 8) |
      (static_cast<uint64_t>(measure) << 16));
  mix(qx_bits);
  mix(qy_bits);
  mix(l_bits);
  mix(w_bits);
  mix(n);
  mix(k);
  mix(m);
  mix(data_epoch);
  return hash;
}

namespace {

size_t NwcResultBytes(const NwcResult& result) {
  return result.objects.capacity() * sizeof(DataObject);
}

size_t KnwcResultBytes(const KnwcResult& result) {
  size_t bytes = result.groups.capacity() * sizeof(NwcGroup);
  for (const auto& group : result.groups) {
    bytes += group.objects.capacity() * sizeof(DataObject);
  }
  return bytes;
}

}  // namespace

ResultCache::ResultCache(size_t capacity_bytes, size_t shards)
    : capacity_bytes_(capacity_bytes) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_capacity_bytes_ = capacity_bytes_ / shards_.size();
}

template <typename Fill>
bool ResultCache::LookupImpl(const ResultCacheKey& key, const Fill& fill) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  fill(*it->second);
  return true;
}

bool ResultCache::LookupNwc(const NwcQuery& query, const NwcOptions& options, NwcResult* out,
                            uint64_t data_epoch) {
  const ResultCacheKey key = ResultCacheKey::ForNwc(query, options, data_epoch);
  return LookupImpl(key, [out](const Entry& entry) { *out = entry.nwc; });
}

bool ResultCache::LookupKnwc(const KnwcQuery& query, const NwcOptions& options, KnwcResult* out,
                             uint64_t data_epoch) {
  const ResultCacheKey key = ResultCacheKey::ForKnwc(query, options, data_epoch);
  return LookupImpl(key, [out](const Entry& entry) { *out = entry.knwc; });
}

void ResultCache::InsertImpl(const ResultCacheKey& key, Entry entry) {
  if (entry.bytes > shard_capacity_bytes_) return;  // would evict a whole shard
  entry.key = key;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  shard.bytes += entry.bytes;
  shard.lru.push_front(std::move(entry));
  shard.index[key] = shard.lru.begin();
  ++shard.insertions;
  while (shard.bytes > shard_capacity_bytes_ && shard.lru.size() > 1) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void ResultCache::InsertNwc(const NwcQuery& query, const NwcOptions& options,
                            const NwcResult& result, uint64_t data_epoch) {
  Entry entry;
  entry.is_knwc = false;
  entry.nwc = result;
  entry.bytes = sizeof(Entry) + NwcResultBytes(entry.nwc);
  InsertImpl(ResultCacheKey::ForNwc(query, options, data_epoch), std::move(entry));
}

void ResultCache::InsertKnwc(const KnwcQuery& query, const NwcOptions& options,
                             const KnwcResult& result, uint64_t data_epoch) {
  Entry entry;
  entry.is_knwc = true;
  entry.knwc = result;
  entry.bytes = sizeof(Entry) + KnwcResultBytes(entry.knwc);
  InsertImpl(ResultCacheKey::ForKnwc(query, options, data_epoch), std::move(entry));
}

ResultCache::Stats ResultCache::GetStats() const {
  Stats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.insertions += shard->insertions;
    stats.evictions += shard->evictions;
    stats.entries += shard->lru.size();
    stats.bytes += shard->bytes;
  }
  return stats;
}

void ResultCache::ResetStats() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->hits = 0;
    shard->misses = 0;
    shard->insertions = 0;
    shard->evictions = 0;
  }
}

}  // namespace nwc
