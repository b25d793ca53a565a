// FaultInjector unit tests: each schedule kind fires exactly where its
// plan says (determinism is the whole point — a failing run must replay
// from the logged spec), Reset restarts the stream, and ParseFaultPlan /
// ToSpec round-trip the CLI spec grammar.

#include "storage/fault_injector.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"

namespace nwc {
namespace {

// Runs `count` reads through the injector and returns the 1-based indices
// of the reads that faulted.
std::vector<uint64_t> FaultIndices(FaultInjector& injector, uint64_t count) {
  std::vector<uint64_t> indices;
  for (uint64_t i = 1; i <= count; ++i) {
    if (!injector.OnRead(static_cast<uint32_t>(i)).ok()) indices.push_back(i);
  }
  return indices;
}

TEST(FaultInjectorTest, NonePlanNeverFaults) {
  FaultInjector injector(FaultPlan::None());
  EXPECT_TRUE(FaultIndices(injector, 100).empty());
  EXPECT_EQ(injector.reads(), 100u);
  EXPECT_EQ(injector.faults_injected(), 0u);
}

TEST(FaultInjectorTest, EveryNthFaultsOnMultiplesOfPeriod) {
  FaultInjector injector(FaultPlan::EveryNth(7));
  const std::vector<uint64_t> expected = {7, 14, 21, 28};
  EXPECT_EQ(FaultIndices(injector, 30), expected);
  EXPECT_EQ(injector.faults_injected(), 4u);
}

TEST(FaultInjectorTest, EveryFirstFaultsEveryRead) {
  FaultInjector injector(FaultPlan::EveryNth(1));
  EXPECT_EQ(FaultIndices(injector, 5), (std::vector<uint64_t>{1, 2, 3, 4, 5}));
}

TEST(FaultInjectorTest, OnceAtFiresExactlyOnce) {
  FaultInjector injector(FaultPlan::OnceAt(5));
  EXPECT_EQ(FaultIndices(injector, 50), std::vector<uint64_t>{5});
  EXPECT_EQ(injector.faults_injected(), 1u);
}

TEST(FaultInjectorTest, InjectedStatusIsTypedIoErrorNamingTheRead) {
  FaultInjector injector(FaultPlan::OnceAt(2));
  EXPECT_TRUE(injector.OnRead(41).ok());
  const Status fault = injector.OnRead(41);
  EXPECT_EQ(fault.code(), StatusCode::kIoError);
  EXPECT_NE(fault.message().find("read 2"), std::string::npos) << fault.message();
  EXPECT_NE(fault.message().find("page 41"), std::string::npos) << fault.message();
}

TEST(FaultInjectorTest, BernoulliIsDeterministicPerSeed) {
  FaultInjector a(FaultPlan::Bernoulli(0.25, 99));
  FaultInjector b(FaultPlan::Bernoulli(0.25, 99));
  const std::vector<uint64_t> first = FaultIndices(a, 400);
  EXPECT_EQ(first, FaultIndices(b, 400)) << "same seed, same schedule";
  EXPECT_FALSE(first.empty()) << "p=0.25 over 400 reads must fire";
  EXPECT_LT(first.size(), 400u);

  FaultInjector c(FaultPlan::Bernoulli(0.25, 100));
  EXPECT_NE(first, FaultIndices(c, 400)) << "different seed, different schedule";
}

TEST(FaultInjectorTest, LatencySpikeNeverReturnsFaults) {
  FaultInjector injector(FaultPlan::LatencySpike(3, /*spike_micros=*/1));
  EXPECT_TRUE(FaultIndices(injector, 20).empty());
  EXPECT_EQ(injector.reads(), 20u);
  EXPECT_EQ(injector.faults_injected(), 0u);
}

TEST(FaultPlanTest, ValidateRejectsDegeneratePlans) {
  EXPECT_TRUE(FaultPlan::None().Validate().ok());
  EXPECT_TRUE(FaultPlan::EveryNth(1).Validate().ok());
  EXPECT_FALSE(FaultPlan::EveryNth(0).Validate().ok());
  EXPECT_FALSE(FaultPlan::OnceAt(0).Validate().ok());
  EXPECT_TRUE(FaultPlan::Bernoulli(1.0, 0).Validate().ok());
  EXPECT_FALSE(FaultPlan::Bernoulli(0.0, 0).Validate().ok());
  EXPECT_FALSE(FaultPlan::Bernoulli(1.5, 0).Validate().ok());
  EXPECT_FALSE(FaultPlan::LatencySpike(0, 10).Validate().ok());
}

TEST(FaultPlanTest, ParseRoundTripsEveryKind) {
  for (const FaultPlan& plan :
       {FaultPlan::None(), FaultPlan::EveryNth(7), FaultPlan::OnceAt(12),
        FaultPlan::Bernoulli(0.05, 42), FaultPlan::LatencySpike(9, 250)}) {
    const Result<FaultPlan> parsed = ParseFaultPlan(plan.ToSpec());
    ASSERT_TRUE(parsed.ok()) << plan.ToSpec() << ": " << parsed.status();
    EXPECT_EQ(parsed->kind, plan.kind) << plan.ToSpec();
    EXPECT_EQ(parsed->period, plan.period) << plan.ToSpec();
    EXPECT_DOUBLE_EQ(parsed->probability, plan.probability) << plan.ToSpec();
    EXPECT_EQ(parsed->seed, plan.seed) << plan.ToSpec();
    EXPECT_EQ(parsed->spike_micros, plan.spike_micros) << plan.ToSpec();
  }
}

TEST(FaultPlanTest, ParseDefaultsBernoulliSeedWhenOmitted) {
  const Result<FaultPlan> plan = ParseFaultPlan("bernoulli:0.1");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->kind, FaultKind::kBernoulli);
  EXPECT_DOUBLE_EQ(plan->probability, 0.1);
  EXPECT_EQ(plan->seed, 1u);
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  for (const char* spec :
       {"", "bogus", "every", "every:0", "every:x", "once:", "once:0", "bernoulli:2.0",
        "bernoulli:0", "spike:5", "spike:0:10", "every:3:extra:fields"}) {
    const Result<FaultPlan> plan = ParseFaultPlan(spec);
    EXPECT_FALSE(plan.ok()) << "spec '" << spec << "' should not parse";
    if (!plan.ok()) {
      EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << spec;
    }
  }
}

TEST(FaultPlanTest, FaultKindNamesAreStable) {
  EXPECT_STREQ(FaultKindName(FaultKind::kNone), "none");
  EXPECT_STREQ(FaultKindName(FaultKind::kEveryNth), "every_nth");
  EXPECT_STREQ(FaultKindName(FaultKind::kOnceAt), "once_at");
  EXPECT_STREQ(FaultKindName(FaultKind::kBernoulli), "bernoulli");
  EXPECT_STREQ(FaultKindName(FaultKind::kLatencySpike), "latency_spike");
}

}  // namespace
}  // namespace nwc
