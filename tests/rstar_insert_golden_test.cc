// Byte-identity gate for R*-tree insertion. Each test insert-builds a tree
// and pins the FNV-1a hash of its SaveTree bytes, so any change to the
// insertion heuristics that moves a single entry — a different ChooseSubtree
// pick on an exact tie, a different split or reinsert order — fails here.
// The pinned hashes were recorded from the exhaustive ChooseSubtree scan
// that the short-cuts in rstar_tree.cc replace.
//
// A second, randomized test compares ChooseSubtree on tie-heavy leaf-parent
// nodes against an in-test copy of that exhaustive scan.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/generators.h"
#include "rtree/rstar_tree.h"
#include "rtree/serialize.h"
#include "rtree/validate.h"

namespace nwc {

class RStarTreeTestPeer {
 public:
  static NodeId ChooseSubtree(RStarTree& tree, const Rect& entry_mbr) {
    return tree.ChooseSubtree(entry_mbr, /*target_level=*/0);
  }
};

namespace {

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// FNV-1a of the tree's SaveTree bytes.
uint64_t TreeHash(const RStarTree& tree, const std::string& name) {
  const std::string path = testing::TempDir() + "rstar_insert_golden_" + name + ".nwctree";
  const Status saved = SaveTree(tree, path);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_FALSE(bytes.empty());
  return Fnv1a(bytes);
}

RStarTree InsertAll(const std::vector<DataObject>& objects, RTreeOptions options = {}) {
  RStarTree tree(options);
  for (const DataObject& object : objects) tree.Insert(object);
  const Status valid = ValidateTree(tree);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  return tree;
}

void Shuffle(std::vector<DataObject>* objects, Rng* rng) {
  for (size_t i = objects->size(); i > 1; --i) {
    std::swap((*objects)[i - 1], (*objects)[rng->NextUint64(i)]);
  }
}

// Exact ties everywhere: a 150x150 lattice of 10-unit spacing, 10,000
// duplicates of 20 lattice points, and 5,000 collinear points along the
// diagonal, shuffled.
std::vector<DataObject> TieHeavyObjects() {
  std::vector<DataObject> objects;
  ObjectId id = 0;
  for (int gx = 0; gx < 150; ++gx) {
    for (int gy = 0; gy < 150; ++gy) {
      objects.push_back(DataObject{id++, Point{gx * 10.0, gy * 10.0}});
    }
  }
  Rng rng(16);
  std::vector<Point> hot;
  for (int i = 0; i < 20; ++i) {
    hot.push_back(Point{10.0 * static_cast<double>(rng.NextUint64(150)),
                        10.0 * static_cast<double>(rng.NextUint64(150))});
  }
  for (int i = 0; i < 10000; ++i) objects.push_back(DataObject{id++, hot[rng.NextUint64(20)]});
  for (int i = 0; i < 5000; ++i) objects.push_back(DataObject{id++, Point{i * 0.3, i * 0.3}});
  Shuffle(&objects, &rng);
  return objects;
}

TEST(RStarInsertGolden, CaLike) {
  const Dataset ca = MakeCaLike(/*seed=*/7);
  EXPECT_EQ(TreeHash(InsertAll(ca.objects), "ca"), 0x292f0368263c6303ull);
}

TEST(RStarInsertGolden, Gaussian100k) {
  const Dataset gaussian = MakeGaussian(100000, /*seed=*/11);
  EXPECT_EQ(TreeHash(InsertAll(gaussian.objects), "gaussian"), 0xded012521e92f42eull);
}

TEST(RStarInsertGolden, NyLikeFirst50k) {
  Dataset ny = MakeNyLike(/*seed=*/13);
  ny.objects.resize(50000);
  EXPECT_EQ(TreeHash(InsertAll(ny.objects), "ny"), 0x4b6a7778c96a5fdeull);
}

TEST(RStarInsertGolden, TieHeavyWithDeleteAndReinsert) {
  const std::vector<DataObject> objects = TieHeavyObjects();
  RStarTree tree = InsertAll(objects);
  for (size_t i = 0; i < objects.size(); i += 3) ASSERT_TRUE(tree.Delete(objects[i]).ok());
  for (size_t i = 0; i < objects.size(); i += 3) tree.Insert(objects[i]);
  ASSERT_EQ(tree.size(), objects.size());
  ASSERT_TRUE(ValidateTree(tree).ok());
  EXPECT_EQ(TreeHash(tree, "ties"), 0xa3cf48e9fece8c19ull);
}

TEST(RStarInsertGolden, WithoutForcedReinsert) {
  Dataset ca = MakeCaLike(/*seed=*/17);
  ca.objects.resize(30000);
  RTreeOptions options;
  options.forced_reinsert = false;
  EXPECT_EQ(TreeHash(InsertAll(ca.objects, options), "no_reinsert"), 0x85bd835d1007b574ull);
}

// The exhaustive leaf-level scan ChooseSubtree used before its short-cuts:
// the full overlap-enlargement sum for each of the (at most 32) candidates
// with least area enlargement, ties by area enlargement, then area.
size_t ExhaustiveLeafChoice(const std::vector<ChildEntry>& children, const Rect& entry_mbr) {
  constexpr size_t kOverlapCandidateLimit = 32;
  std::vector<size_t> candidates(children.size());
  for (size_t i = 0; i < children.size(); ++i) candidates[i] = i;
  if (candidates.size() > kOverlapCandidateLimit) {
    std::nth_element(candidates.begin(),
                     candidates.begin() + static_cast<ptrdiff_t>(kOverlapCandidateLimit),
                     candidates.end(), [&](size_t a, size_t b) {
                       return children[a].mbr.EnlargementArea(entry_mbr) <
                              children[b].mbr.EnlargementArea(entry_mbr);
                     });
    candidates.resize(kOverlapCandidateLimit);
  }
  size_t best = 0;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_enlarge = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (const size_t i : candidates) {
    const Rect enlarged = Rect::Union(children[i].mbr, entry_mbr);
    double overlap_delta = 0.0;
    for (size_t j = 0; j < children.size(); ++j) {
      if (j == i) continue;
      overlap_delta +=
          enlarged.OverlapArea(children[j].mbr) - children[i].mbr.OverlapArea(children[j].mbr);
    }
    const double enlarge = children[i].mbr.EnlargementArea(entry_mbr);
    const double area = children[i].mbr.Area();
    if (overlap_delta < best_overlap ||
        (overlap_delta == best_overlap &&
         (enlarge < best_enlarge || (enlarge == best_enlarge && area < best_area)))) {
      best_overlap = overlap_delta;
      best_enlarge = enlarge;
      best_area = area;
      best = i;
    }
  }
  return best;
}

// A coordinate on a coarse lattice, so corners, edges and areas tie often.
double LatticeCoord(Rng* rng) { return 0.5 * static_cast<double>(rng->NextUint64(17)); }

Rect RandomTieHeavyRect(Rng* rng, const std::vector<ChildEntry>& so_far) {
  const uint64_t kind = rng->NextUint64(6);
  if (kind == 0 && !so_far.empty()) return so_far[rng->NextUint64(so_far.size())].mbr;
  const Point a{LatticeCoord(rng), LatticeCoord(rng)};
  if (kind == 1) return Rect::FromPoint(a);                                   // a point
  if (kind == 2) return Rect::FromCorners(a, Point{LatticeCoord(rng), a.y});  // a segment
  return Rect::FromCorners(a, Point{LatticeCoord(rng), LatticeCoord(rng)});
}

TEST(RStarInsertGolden, ChooseSubtreeMatchesExhaustiveScanOnTieHeavyNodes) {
  Rng rng(2016);
  for (int trial = 0; trial < 4000; ++trial) {
    // A leaf-parent root over `fanout` (empty) leaves whose entry MBRs are
    // drawn tie-heavy; fan-outs above 32 exercise the candidate cut.
    const size_t fanout = 2 + rng.NextUint64(49);
    std::vector<std::unique_ptr<RTreeNode>> nodes(fanout + 1);
    nodes[0] = std::make_unique<RTreeNode>();
    nodes[0]->id = 0;
    nodes[0]->level = 1;
    for (size_t c = 1; c <= fanout; ++c) {
      nodes[c] = std::make_unique<RTreeNode>();
      nodes[c]->id = static_cast<NodeId>(c);
      nodes[c]->parent = 0;
      nodes[c]->level = 0;
      nodes[0]->children.push_back(
          ChildEntry{RandomTieHeavyRect(&rng, nodes[0]->children), static_cast<NodeId>(c)});
    }
    const std::vector<ChildEntry> children = nodes[0]->children;
    RStarTree tree = RStarTree::FromParts(RTreeOptions{}, std::move(nodes), 0, 0);
    for (int probe = 0; probe < 8; ++probe) {
      // Mostly points (what leaf-level insertion sees), sometimes a corner
      // of an existing child, sometimes a tie-heavy rect.
      Rect entry = Rect::FromPoint(Point{LatticeCoord(&rng), LatticeCoord(&rng)});
      if (probe % 4 == 1) {
        const Rect& c = children[rng.NextUint64(children.size())].mbr;
        entry = Rect::FromPoint(Point{c.max_x, c.min_y});
      } else if (probe % 4 == 2) {
        entry = RandomTieHeavyRect(&rng, {});
      }
      const NodeId expected = children[ExhaustiveLeafChoice(children, entry)].child;
      ASSERT_EQ(RStarTreeTestPeer::ChooseSubtree(tree, entry), expected)
          << "trial " << trial << " probe " << probe << " fanout " << fanout;
    }
  }
}

}  // namespace
}  // namespace nwc
