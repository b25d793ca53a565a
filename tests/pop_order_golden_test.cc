// Pop-order gate for the NWC search driver. Each test runs NWC and kNWC
// under every Table 3 preset with an armed QueryTrace and pins one FNV-1a
// hash over, per query: the (kind, detail) sequence of the kBrowseNode and
// kCandidate spans — which node was expanded and which object was popped,
// in order — the traversal-heap high-water mark, every trace counter, the
// per-phase node reads and the answer (distance bits and member ids).
//
// Any change to the traversal's queue that reorders a single pop, however
// the answer comes out, fails here. The hash must also be the same under
// the scalar and the AVX2 kernels, so each test runs in both dispatch
// modes. The pinned hashes were recorded from the single binary heap of
// 72-byte entries that the run-merge queue in search_driver.cc replaces.

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/io_stats.h"
#include "common/rng.h"
#include "core/knwc_engine.h"
#include "core/nwc_engine.h"
#include "datasets/generators.h"
#include "grid/density_grid.h"
#include "obs/query_trace.h"
#include "rtree/bulk_load.h"
#include "rtree/iwp_index.h"
#include "rtree/rstar_tree.h"
#include "simd/kernels.h"

namespace nwc {
namespace {

class Fnv1a {
 public:
  void Add(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001b3ull;
    }
  }
  void AddDouble(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct Index {
  RStarTree tree;
  IwpIndex iwp;
  DensityGrid grid;
};

std::vector<NwcOptions> AllPresets() {
  return {NwcOptions::Plain(), NwcOptions::Srr(), NwcOptions::Dip(), NwcOptions::Dep(),
          NwcOptions::Iwp(),   NwcOptions::Plus(), NwcOptions::Star()};
}

void HashTrace(const QueryTrace& trace, const IoCounter& io, Fnv1a* hash) {
  for (const TraceSpan& span : trace.spans()) {
    if (span.kind != SpanKind::kBrowseNode && span.kind != SpanKind::kCandidate) continue;
    hash->Add(static_cast<uint64_t>(span.kind));
    hash->Add(static_cast<uint64_t>(span.detail));
  }
  hash->Add(trace.heap_high_water());
  for (size_t c = 0; c < kTraceCounterCount; ++c) {
    hash->Add(trace.counter(static_cast<TraceCounter>(c)));
  }
  hash->Add(io.traversal_reads());
  hash->Add(io.window_query_reads());
}

void HashGroup(double distance, const std::vector<DataObject>& objects, Fnv1a* hash) {
  hash->AddDouble(distance);
  for (const DataObject& object : objects) hash->Add(object.id);
}

uint64_t NwcHash(const Index& index, const std::vector<NwcQuery>& queries) {
  const NwcEngine engine(index.tree, &index.iwp, &index.grid);
  Fnv1a hash;
  for (const NwcQuery& query : queries) {
    for (const NwcOptions& options : AllPresets()) {
      IoCounter io;
      QueryTrace trace = QueryTrace::EnabledWithClock([] { return uint64_t{0}; });
      const Result<NwcResult> result = engine.Execute(query, options, &io, &trace);
      EXPECT_TRUE(result.ok());
      if (!result.ok()) continue;
      HashTrace(trace, io, &hash);
      hash.Add(result->found ? 1 : 0);
      if (result->found) HashGroup(result->distance, result->objects, &hash);
    }
  }
  return hash.value();
}

uint64_t KnwcHash(const Index& index, const std::vector<KnwcQuery>& queries) {
  const KnwcEngine engine(index.tree, &index.iwp, &index.grid);
  Fnv1a hash;
  for (const KnwcQuery& query : queries) {
    for (const NwcOptions& options : AllPresets()) {
      IoCounter io;
      QueryTrace trace = QueryTrace::EnabledWithClock([] { return uint64_t{0}; });
      const Result<KnwcResult> result = engine.Execute(query, options, &io, &trace);
      EXPECT_TRUE(result.ok());
      if (!result.ok()) continue;
      HashTrace(trace, io, &hash);
      hash.Add(result->groups.size());
      for (const NwcGroup& group : result->groups) HashGroup(group.distance, group.objects, &hash);
    }
  }
  return hash.value();
}

// Exact ties everywhere: a 40x40 lattice of 10-unit spacing, insert-built,
// plus 800 coincident duplicates of 12 lattice points. Queries sit on
// lattice points with lattice-sized windows, so keys, windows and group
// distances tie often.
Index LatticeIndex() {
  std::vector<DataObject> objects;
  ObjectId id = 0;
  for (int gx = 0; gx < 40; ++gx) {
    for (int gy = 0; gy < 40; ++gy) {
      objects.push_back(DataObject{id++, Point{gx * 10.0, gy * 10.0}});
    }
  }
  Rng rng(25);
  std::vector<Point> hot;
  for (int i = 0; i < 12; ++i) {
    hot.push_back(Point{10.0 * static_cast<double>(rng.NextUint64(40)),
                        10.0 * static_cast<double>(rng.NextUint64(40))});
  }
  for (int i = 0; i < 800; ++i) objects.push_back(DataObject{id++, hot[rng.NextUint64(12)]});
  for (size_t i = objects.size(); i > 1; --i) {
    std::swap(objects[i - 1], objects[rng.NextUint64(i)]);
  }
  RTreeOptions options;
  options.max_entries = 8;
  options.min_entries = 3;
  RStarTree tree(options);
  for (const DataObject& object : objects) tree.Insert(object);
  IwpIndex iwp = IwpIndex::Build(tree);
  DensityGrid grid(Rect{0, 0, 400, 400}, 20.0, objects);
  return Index{std::move(tree), std::move(iwp), std::move(grid)};
}

std::vector<NwcQuery> LatticeQueries() {
  Rng rng(26);
  std::vector<NwcQuery> queries;
  for (int i = 0; i < 16; ++i) {
    const Point q{10.0 * static_cast<double>(rng.NextUint64(40)),
                  10.0 * static_cast<double>(rng.NextUint64(40))};
    const double l = 10.0 * static_cast<double>(1 + rng.NextUint64(4));
    const double w = 10.0 * static_cast<double>(1 + rng.NextUint64(4));
    queries.push_back(NwcQuery{q, l, w, 2 + rng.NextUint64(8)});
  }
  return queries;
}

// A 20k-object CA-like set, STR-loaded with the paper's default fan-out.
Index CaIndex() {
  const Dataset ca = MakeCaLike(/*seed=*/7, /*cardinality=*/20000);
  RStarTree tree = BulkLoadStr(ca.objects, RTreeOptions{});
  IwpIndex iwp = IwpIndex::Build(tree);
  DensityGrid grid(Rect{0, 0, 10000, 10000}, 25.0, ca.objects);
  return Index{std::move(tree), std::move(iwp), std::move(grid)};
}

std::vector<NwcQuery> CaQueries() {
  Rng rng(27);
  std::vector<NwcQuery> queries;
  for (int i = 0; i < 4; ++i) {
    const Point q{rng.NextDouble(0, 10000), rng.NextDouble(0, 10000)};
    queries.push_back(NwcQuery{q, rng.NextDouble(100, 400), rng.NextDouble(100, 400),
                               4 + rng.NextUint64(6)});
  }
  return queries;
}

std::vector<KnwcQuery> AsKnwc(const std::vector<NwcQuery>& base) {
  std::vector<KnwcQuery> queries;
  for (size_t i = 0; i < base.size(); ++i) {
    queries.push_back(KnwcQuery{base[i], 2 + i % 3, i % base[i].n});
  }
  return queries;
}

// Runs `body` once per dispatch mode and restores automatic dispatch.
template <typename Body>
void InBothDispatchModes(const Body& body) {
  simd::SetDispatchMode(simd::DispatchMode::kForceScalar);
  body("scalar");
  simd::SetDispatchMode(simd::DispatchMode::kAuto);
  body(simd::ActiveKernelName());
}

TEST(PopOrderGolden, LatticeNwc) {
  const Index index = LatticeIndex();
  const std::vector<NwcQuery> queries = LatticeQueries();
  InBothDispatchModes([&](const char* mode) {
    EXPECT_EQ(NwcHash(index, queries), 0x0fc67594bc6cb5e6ull) << mode;
  });
}

TEST(PopOrderGolden, LatticeKnwc) {
  const Index index = LatticeIndex();
  const std::vector<KnwcQuery> queries = AsKnwc(LatticeQueries());
  InBothDispatchModes([&](const char* mode) {
    EXPECT_EQ(KnwcHash(index, queries), 0x27eaf21149d7f0d2ull) << mode;
  });
}

TEST(PopOrderGolden, CaLikeNwc) {
  const Index index = CaIndex();
  const std::vector<NwcQuery> queries = CaQueries();
  InBothDispatchModes([&](const char* mode) {
    EXPECT_EQ(NwcHash(index, queries), 0x899afd9f97f99c2bull) << mode;
  });
}

TEST(PopOrderGolden, CaLikeKnwc) {
  const Index index = CaIndex();
  const std::vector<KnwcQuery> queries = AsKnwc(CaQueries());
  InBothDispatchModes([&](const char* mode) {
    EXPECT_EQ(KnwcHash(index, queries), 0x1044ea4038e93614ull) << mode;
  });
}

// The queue breaks equal-distance object ties by object id, so the pop
// order does not depend on how the tree was built. 4 objects at each of 25
// distances: every ring (+-d, 0), (0, +-d) around q is an exact 4-way tie.
// n exceeds the object count, so no window qualifies and the plain search
// pops every object.
TEST(PopOrderTest, TieHeavyRingsPopInIdOrderAcrossLayouts) {
  const Point q{500.0, 500.0};
  std::vector<DataObject> objects;
  for (int ring = 1; ring <= 25; ++ring) {
    const double d = 10.0 * ring;
    const Point offsets[] = {{d, 0.0}, {-d, 0.0}, {0.0, d}, {0.0, -d}};
    for (const Point& offset : offsets) {
      objects.push_back(DataObject{static_cast<ObjectId>(objects.size()),
                                   Point{q.x + offset.x, q.y + offset.y}});
    }
  }

  const auto popped_ids = [&](const RStarTree& tree) {
    const NwcEngine engine(tree, nullptr, nullptr);
    QueryTrace trace = QueryTrace::EnabledWithClock([] { return uint64_t{0}; });
    const Result<NwcResult> result =
        engine.Execute(NwcQuery{q, 1.0, 1.0, objects.size() + 1}, NwcOptions::Plain(), nullptr,
                       &trace);
    EXPECT_TRUE(result.ok() && !result->found);
    std::vector<ObjectId> ids;
    for (const TraceSpan& span : trace.spans()) {
      if (span.kind == SpanKind::kCandidate) ids.push_back(static_cast<ObjectId>(span.detail));
    }
    for (size_t i = 1; i < ids.size(); ++i) {
      const double before = Distance(q, objects[ids[i - 1]].pos);
      const double after = Distance(q, objects[ids[i]].pos);
      EXPECT_LE(before, after) << "pop " << i;
      if (before == after) {
        EXPECT_LT(ids[i - 1], ids[i]) << "pop " << i;
      }
    }
    return ids;
  };

  // Two very different layouts of the same data: incremental R* inserts
  // (splits + reinserts) vs STR bulk load.
  RTreeOptions insert_options;
  insert_options.max_entries = 10;
  insert_options.min_entries = 4;
  RStarTree inserted(insert_options);
  for (const DataObject& object : objects) inserted.Insert(object);
  RTreeOptions str_options;
  str_options.max_entries = 16;
  str_options.min_entries = 6;
  const std::vector<ObjectId> insert_order = popped_ids(inserted);
  EXPECT_EQ(insert_order.size(), objects.size());
  EXPECT_EQ(insert_order, popped_ids(BulkLoadStr(objects, str_options)));
}

}  // namespace
}  // namespace nwc
