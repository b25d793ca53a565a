#include "obs/trace_export.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/io_stats.h"
#include "obs/prometheus.h"
#include "obs/query_trace.h"
#include "service/latency_histogram.h"
#include "service/service_metrics.h"

namespace nwc {
namespace {

// Golden-file tests: the emitters' exact output is part of the contract
// (scripts parse the JSONL, dashboards scrape the Prometheus text), so
// format drift must be a conscious choice. To update after an intentional
// change, rerun with NWC_REGEN_GOLDEN=1 and review the diff.
std::string GoldenPath(const std::string& name) {
  return std::string(NWC_GOLDEN_DIR) + "/" + name;
}

void CompareToGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (std::getenv("NWC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with NWC_REGEN_GOLDEN=1)";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str()) << "output of " << name
                                    << " drifted from the golden file";
}

// A small, fully deterministic trace: an injected clock that advances
// 1500 ns per reading, hand-driven I/O, one of every interesting span
// shape (nested check, pruned candidate, window query with a hit count).
QueryTrace MakeGoldenTrace() {
  uint64_t now = 0;
  QueryTrace trace = QueryTrace::EnabledWithClock([&now] {
    const uint64_t t = now;
    now += 1500;
    return t;
  });
  IoCounter io;

  const SpanId root = trace.Begin(SpanKind::kQuery, &io);

  const SpanId browse = trace.Begin(SpanKind::kBrowseNode, &io, /*node id=*/7);
  io.OnNodeAccess(IoPhase::kTraversal);
  trace.Count(TraceCounter::kNodesExpanded);
  const SpanId dip = trace.Begin(SpanKind::kDipCheck, &io);
  trace.End(dip, &io);
  trace.NoteHeapSize(12);
  trace.End(browse, &io);

  const SpanId pruned = trace.Begin(SpanKind::kCandidate, &io, /*object id=*/42);
  trace.Count(TraceCounter::kObjectsBrowsed);
  const SpanId srr = trace.Begin(SpanKind::kSrrCheck, &io);
  trace.End(srr, &io);
  trace.Count(TraceCounter::kPrunedSrr);
  trace.End(pruned, &io);

  const SpanId candidate = trace.Begin(SpanKind::kCandidate, &io, /*object id=*/43);
  trace.Count(TraceCounter::kObjectsBrowsed);
  const SpanId wq = trace.Begin(SpanKind::kWindowQuery, &io);
  io.OnNodeAccess(IoPhase::kWindowQuery);
  io.OnNodeAccess(IoPhase::kWindowQuery);
  trace.End(wq, &io);
  trace.SetDetail(wq, /*hits=*/5);
  trace.Count(TraceCounter::kWindowQueries);
  trace.Count(TraceCounter::kWindowsEvaluated);
  trace.Count(TraceCounter::kGroupsOffered);
  trace.End(candidate, &io);

  trace.End(root, &io);
  trace.set_label("golden nwc q=(1.000,2.000) \"quoted\"");
  return trace;
}

TEST(TraceExportTest, ChromeTraceMatchesGolden) {
  CompareToGolden("trace_chrome.json", ToChromeTraceJson(MakeGoldenTrace()));
}

TEST(TraceExportTest, JsonlMatchesGolden) {
  CompareToGolden("trace.jsonl", ToJsonl(MakeGoldenTrace()));
}

TEST(TraceExportTest, PrometheusTextMatchesGolden) {
  MetricsSnapshot snapshot;
  snapshot.queries = 4;
  snapshot.failures = 1;
  snapshot.not_found = 1;
  snapshot.slow_queries = 3;
  snapshot.max_queue_depth = 9;
  snapshot.wall_seconds = 2.0;
  snapshot.traversal_reads = 17;
  snapshot.window_query_reads = 136;

  LatencyHistogram latency;
  latency.Record(10);
  latency.Record(10);
  latency.Record(63);
  latency.Record(100000);

  CompareToGolden("metrics.prom", ToPrometheusText(snapshot, latency));
}

TEST(TraceExportTest, PrometheusZeroElapsedSnapshotMatchesGolden) {
  // A scrape racing service startup sees queries recorded but no elapsed
  // wall time. The qps gauge must render 0, never "inf"/"nan" (which
  // Prometheus would reject for the whole exposition).
  MetricsSnapshot snapshot;
  snapshot.queries = 5;
  snapshot.wall_seconds = 0.0;

  LatencyHistogram latency;
  latency.Record(0);

  const std::string text = ToPrometheusText(snapshot, latency);
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  CompareToGolden("metrics_zero.prom", text);
}

TEST(TraceExportTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("x\n\t\r"), "x\\n\\t\\r");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
}

TEST(TraceExportTest, EmptyTraceStillRendersValidEnvelope) {
  QueryTrace trace = QueryTrace::Enabled();
  const std::string chrome = ToChromeTraceJson(trace);
  EXPECT_NE(chrome.find("\"traceEvents\":["), std::string::npos);
  const std::string jsonl = ToJsonl(trace);
  EXPECT_NE(jsonl.find("\"summary\":true"), std::string::npos);
  EXPECT_NE(jsonl.find("\"spans\":0"), std::string::npos);
}

}  // namespace
}  // namespace nwc
