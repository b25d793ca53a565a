// End-to-end tests across modules: datasets -> index structures -> engines,
// at a scale closer to the paper's (tens of thousands of objects), checking
// the cross-cutting guarantees the benchmarks rely on.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util/experiment.h"
#include "common/rng.h"
#include "core/knwc_engine.h"
#include "core/nwc_engine.h"
#include "datasets/generators.h"
#include "rtree/serialize.h"
#include "rtree/validate.h"

namespace nwc {
namespace {

Dataset MidSizeDataset() {
  ClusteredSpec spec;
  spec.cardinality = 20000;
  spec.background_fraction = 0.15;
  Rng rng(1234);
  for (int i = 0; i < 15; ++i) {
    spec.clusters.push_back(ClusterSpec{
        Point{rng.NextDouble(500, 9500), rng.NextDouble(500, 9500)},
        30.0 + 200.0 * rng.NextDouble(), 30.0 + 200.0 * rng.NextDouble(), 1.0});
  }
  return MakeClustered(spec, 99, "mid");
}

class IntegrationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new ExperimentFixture(MidSizeDataset());
  }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  static ExperimentFixture* fixture_;
};

ExperimentFixture* IntegrationFixture::fixture_ = nullptr;

TEST_F(IntegrationFixture, TreeIsStructurallyValid) {
  EXPECT_TRUE(ValidateTree(fixture_->tree()).ok());
  EXPECT_EQ(fixture_->tree().size(), 20000u);
}

TEST_F(IntegrationFixture, SchemeInvarianceAtScale) {
  NwcEngine engine(fixture_->tree(), &fixture_->iwp(), &fixture_->GridFor(25.0));
  const std::vector<Point> queries = SampleQueryPoints(fixture_->dataset(), 6, 7);
  for (const Point& q : queries) {
    const NwcQuery query{q, 64, 64, 8};
    double reference = -1.0;
    bool found = false;
    for (const Scheme& scheme : AllSchemes()) {
      const Result<NwcResult> result = engine.Execute(query, scheme.options, nullptr);
      ASSERT_TRUE(result.ok()) << scheme.name;
      if (reference < 0.0) {
        found = result->found;
        reference = found ? result->distance : 0.0;
      } else {
        ASSERT_EQ(result->found, found) << scheme.name;
        if (found) {
          EXPECT_NEAR(result->distance, reference, 1e-9) << scheme.name;
        }
      }
    }
  }
}

TEST_F(IntegrationFixture, IoOrderingMatchesPaperNarrative) {
  // On clustered data with the default parameters, every optimized scheme
  // beats plain NWC, and NWC* is at least as good as NWC+.
  const std::vector<Point> queries = SampleQueryPoints(fixture_->dataset(), 8, 8);
  std::vector<Scheme> schemes = AllSchemes();
  std::vector<double> io(schemes.size());
  for (size_t s = 0; s < schemes.size(); ++s) {
    io[s] = RunNwcPoint(*fixture_, schemes[s], queries, 8, 32, 32).avg_io;
  }
  const double plain = io[0];
  for (size_t s = 1; s < schemes.size(); ++s) {
    EXPECT_LT(io[s], plain) << schemes[s].name;
  }
  EXPECT_LE(io[6], io[5] * 1.05);  // NWC* <= NWC+ (within noise)
}

TEST_F(IntegrationFixture, KnwcConsistentAcrossSchemes) {
  KnwcEngine engine(fixture_->tree(), &fixture_->iwp(), &fixture_->GridFor(25.0));
  const std::vector<Point> queries = SampleQueryPoints(fixture_->dataset(), 4, 9);
  const std::vector<Scheme> schemes = AllSchemes();
  for (const Point& q : queries) {
    const KnwcQuery query{NwcQuery{q, 64, 64, 6}, 4, 5};  // m = n-1: order-free
    std::vector<double> reference;
    for (size_t s = 0; s < schemes.size(); ++s) {
      const Result<KnwcResult> result = engine.Execute(query, schemes[s].options, nullptr);
      ASSERT_TRUE(result.ok()) << schemes[s].name;
      std::vector<double> distances;
      for (const NwcGroup& group : result->groups) distances.push_back(group.distance);
      if (s == 0) {
        reference = distances;
        continue;
      }
      ASSERT_EQ(distances.size(), reference.size()) << schemes[s].name;
      for (size_t g = 0; g < distances.size(); ++g) {
        EXPECT_NEAR(distances[g], reference[g], 1e-9) << schemes[s].name << " group " << g;
      }
    }
  }
}

TEST_F(IntegrationFixture, SerializeRoundTripPreservesQueryResults) {
  const std::string path = std::string(::testing::TempDir()) + "/integration.nwctree";
  ASSERT_TRUE(SaveTree(fixture_->tree(), path).ok());
  Result<RStarTree> loaded = LoadTree(path);
  ASSERT_TRUE(loaded.ok());

  NwcEngine original(fixture_->tree());
  NwcEngine reloaded(*loaded);
  const std::vector<Point> queries = SampleQueryPoints(fixture_->dataset(), 5, 10);
  for (const Point& q : queries) {
    const NwcQuery query{q, 32, 32, 4};
    const Result<NwcResult> a = original.Execute(query, NwcOptions::Plus(), nullptr);
    const Result<NwcResult> b = reloaded.Execute(query, NwcOptions::Plus(), nullptr);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->found, b->found);
    if (a->found) {
      EXPECT_NEAR(a->distance, b->distance, 1e-12);
    }
  }
}

TEST_F(IntegrationFixture, IoCountIndependentOfCounterPresence) {
  // Running with or without an IoCounter must not change results.
  NwcEngine engine(fixture_->tree(), &fixture_->iwp(), &fixture_->GridFor(25.0));
  const NwcQuery query{Point{5000, 5000}, 32, 32, 8};
  IoCounter io;
  const Result<NwcResult> with = engine.Execute(query, NwcOptions::Star(), &io);
  const Result<NwcResult> without = engine.Execute(query, NwcOptions::Star(), nullptr);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with->found, without->found);
  if (with->found) {
    EXPECT_EQ(with->distance, without->distance);
  }
  EXPECT_GT(io.query_total(), 0u);
}

TEST_F(IntegrationFixture, DeterministicAcrossRuns) {
  NwcEngine engine(fixture_->tree(), &fixture_->iwp(), &fixture_->GridFor(25.0));
  const NwcQuery query{Point{2500, 7500}, 48, 48, 8};
  IoCounter io1;
  IoCounter io2;
  const Result<NwcResult> a = engine.Execute(query, NwcOptions::Star(), &io1);
  const Result<NwcResult> b = engine.Execute(query, NwcOptions::Star(), &io2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(io1.query_total(), io2.query_total());
  ASSERT_EQ(a->found, b->found);
  if (a->found) {
    ASSERT_EQ(a->objects.size(), b->objects.size());
    for (size_t i = 0; i < a->objects.size(); ++i) {
      EXPECT_EQ(a->objects[i], b->objects[i]);
    }
  }
}


}  // namespace
}  // namespace nwc
