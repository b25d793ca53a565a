#include "common/io_stats.h"

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

namespace nwc {
namespace {

TEST(IoCounterTest, StartsAtZero) {
  const IoCounter io;
  EXPECT_EQ(io.traversal_reads(), 0u);
  EXPECT_EQ(io.window_query_reads(), 0u);
  EXPECT_EQ(io.query_total(), 0u);
}

TEST(IoCounterTest, PhasesAccumulateSeparately) {
  IoCounter io;
  io.OnNodeAccess(IoPhase::kTraversal);
  io.OnNodeAccess(IoPhase::kTraversal);
  io.OnNodeAccess(IoPhase::kWindowQuery);
  EXPECT_EQ(io.traversal_reads(), 2u);
  EXPECT_EQ(io.window_query_reads(), 1u);
  EXPECT_EQ(io.query_total(), 3u);
}

TEST(IoCounterTest, ResetClearsEverything) {
  IoCounter io;
  size_t probed = 0;
  io.SetReadProbe([&probed](uint32_t) { ++probed; });
  io.OnNodeAccess(IoPhase::kTraversal, 7);
  io.OnNodeAccess(IoPhase::kWindowQuery, 8);
  io.Reset();
  EXPECT_EQ(io.traversal_reads(), 0u);
  EXPECT_EQ(io.window_query_reads(), 0u);
  // The read probe stays installed across Reset.
  io.OnNodeAccess(IoPhase::kWindowQuery, 9);
  EXPECT_EQ(probed, 3u);
  EXPECT_EQ(io.query_total(), 1u);
}

TEST(IoCounterTest, AddMergesPhaseCounts) {
  IoCounter a;
  a.OnNodeAccess(IoPhase::kTraversal);
  a.OnNodeAccess(IoPhase::kWindowQuery);

  IoCounter b;
  b.OnNodeAccess(IoPhase::kTraversal, 1);
  b.OnNodeAccess(IoPhase::kWindowQuery);
  b.OnNodeAccess(IoPhase::kWindowQuery);

  a.Add(b);
  EXPECT_EQ(a.traversal_reads(), 2u);
  EXPECT_EQ(a.window_query_reads(), 3u);
  EXPECT_EQ(a.query_total(), 5u);
  // The source counter is unchanged.
  EXPECT_EQ(b.query_total(), 3u);
}

TEST(IoCounterTest, AddOfEmptyCounterIsANoOp) {
  IoCounter a;
  a.OnNodeAccess(IoPhase::kTraversal);
  a.Add(IoCounter());
  EXPECT_EQ(a.query_total(), 1u);
  EXPECT_EQ(a.traversal_reads(), 1u);
}

TEST(IoCounterTest, AddDoesNotTouchTraceOrProbe) {
  size_t probed_a = 0;
  size_t probed_b = 0;
  IoCounter a;
  a.SetReadProbe([&probed_a](uint32_t) { ++probed_a; });
  a.OnNodeAccess(IoPhase::kTraversal, 4);

  IoCounter b;
  b.SetReadProbe([&probed_b](uint32_t) { ++probed_b; });
  b.OnNodeAccess(IoPhase::kWindowQuery, 9);

  a.Add(b);  // merges counts only: neither probe fires for them
  EXPECT_EQ(probed_a, 1u);
  EXPECT_EQ(probed_b, 1u);
  EXPECT_EQ(a.traversal_reads(), 1u);
  EXPECT_EQ(a.window_query_reads(), 1u);
}

TEST(IoCounterTest, ReadProbeSeesEveryCountedRead) {
  // The fault-injection hook: the probe fires once per read, in order,
  // with the page id the read touched, and every access is a read.
  IoCounter io;
  std::vector<uint32_t> probed;
  io.SetReadProbe([&probed](uint32_t page) { probed.push_back(page); });
  io.OnNodeAccess(IoPhase::kTraversal, 3);
  io.OnNodeAccess(IoPhase::kWindowQuery, 9);
  io.OnNodeAccess(IoPhase::kWindowQuery, 9);  // a re-visit is a read too
  io.OnNodeAccess(IoPhase::kTraversal);       // unknown page still probes
  ASSERT_EQ(probed.size(), 4u);
  EXPECT_EQ(probed[0], 3u);
  EXPECT_EQ(probed[1], 9u);
  EXPECT_EQ(probed[2], 9u);
  EXPECT_EQ(probed[3], IoCounter::kUnknownPage);
  EXPECT_EQ(io.query_total(), 4u);

  io.SetReadProbe(nullptr);  // detachable
  io.OnNodeAccess(IoPhase::kTraversal, 5);
  EXPECT_EQ(probed.size(), 4u);
  EXPECT_EQ(io.query_total(), 5u);
}

}  // namespace
}  // namespace nwc
