// End-to-end test of the nwc_tool CLI binary: generate -> build -> stats
// -> query -> knwc -> trace -> serve-batch exports, plus the error paths of
// it and of nwc_load. The binary paths are injected by CMake as
// NWC_TOOL_PATH and NWC_LOAD_PATH.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#if !defined(NWC_TOOL_PATH) || !defined(NWC_LOAD_PATH)
#error "NWC_TOOL_PATH and NWC_LOAD_PATH must be defined by the build"
#endif

namespace nwc {
namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult RunBinary(const char* binary, const std::string& args) {
  const std::string command = std::string(binary) + " " + args + " 2>&1";
  std::FILE* pipe = ::popen(command.c_str(), "r");
  CommandResult result;
  if (pipe == nullptr) return result;
  char buffer[512];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

CommandResult RunTool(const std::string& args) { return RunBinary(NWC_TOOL_PATH, args); }

std::string TempPath(const char* name) {
  // Pid-qualified: gtest_discover_tests runs every test in its own
  // process, so under a parallel ctest two processes would otherwise
  // regenerate and read the same fixture files concurrently.
  return std::string(::testing::TempDir()) + "/" + std::to_string(::getpid()) + "_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class CliPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    csv_path_ = new std::string(TempPath("cli_test.csv"));
    tree_path_ = new std::string(TempPath("cli_test.nwctree"));
    const CommandResult gen =
        RunTool("generate --kind=ca --count=5000 --seed=3 --out=" + *csv_path_);
    ASSERT_EQ(gen.exit_code, 0) << gen.output;
    const CommandResult build =
        RunTool("build --data=" + *csv_path_ + " --out=" + *tree_path_ + " --str");
    ASSERT_EQ(build.exit_code, 0) << build.output;
  }
  static void TearDownTestSuite() {
    delete csv_path_;
    delete tree_path_;
    csv_path_ = nullptr;
    tree_path_ = nullptr;
  }
  static std::string* csv_path_;
  static std::string* tree_path_;
};

std::string* CliPipelineTest::csv_path_ = nullptr;
std::string* CliPipelineTest::tree_path_ = nullptr;

TEST_F(CliPipelineTest, StatsReportsValidTree) {
  const CommandResult result = RunTool("stats --index=" + *tree_path_);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("objects:  5000"), std::string::npos) << result.output;
  // LoadTree rejects an invalid tree, so stats printing at all is the
  // validity report; the fan-out line shows the tree's options came back.
  EXPECT_NE(result.output.find("fanout:   max 50 / min 20"), std::string::npos) << result.output;
}

TEST_F(CliPipelineTest, QueryFindsGroup) {
  const CommandResult result =
      RunTool("query --index=" + *tree_path_ + " --q=5000,5000 --l=400 --w=400 --n=5 "
          "--scheme=star");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("distance"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("node reads"), std::string::npos) << result.output;
}

TEST_F(CliPipelineTest, SchemesAgreeOnDistance) {
  const std::string base =
      " --index=" + *tree_path_ + " --q=3000,7000 --l=300 --w=300 --n=4 --scheme=";
  const CommandResult plain = RunTool("query" + base + "plain");
  const CommandResult star = RunTool("query" + base + "star");
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  ASSERT_EQ(star.exit_code, 0) << star.output;
  // First line carries "distance <value> ..."; they must match exactly.
  EXPECT_EQ(plain.output.substr(0, plain.output.find(',')),
            star.output.substr(0, star.output.find(',')));
}

TEST_F(CliPipelineTest, KnwcReturnsOrderedGroups) {
  const CommandResult result =
      RunTool("knwc --index=" + *tree_path_ + " --q=5000,5000 --l=400 --w=400 --n=4 --k=3 "
          "--m=1 --scheme=plus");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("group 1:"), std::string::npos) << result.output;
}

// Writes a 13-request replay file: 12 NWC windows across the space and
// one kNWC. Returns its path.
std::string WriteReplayFile(const char* name) {
  const std::string queries_path = TempPath(name);
  std::FILE* file = std::fopen(queries_path.c_str(), "w");
  EXPECT_NE(file, nullptr);
  if (file == nullptr) return queries_path;
  std::fprintf(file, "# mixed NWC / kNWC replay\n");
  for (int i = 0; i < 12; ++i) {
    std::fprintf(file, "nwc %d %d 400 400 5\n", 1000 + i * 700, 9000 - i * 600);
  }
  std::fprintf(file, "knwc 5000 5000 400 400 4 3 1\n");
  std::fclose(file);
  return queries_path;
}

TEST_F(CliPipelineTest, ServeBatchReplaysQueryFileAndReportsMetrics) {
  const CommandResult result =
      RunTool("serve-batch --index=" + *tree_path_ + " --queries=" +
              WriteReplayFile("cli_serve_batch.txt") + " --threads=4 --scheme=star --print");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("serving 13 queries"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("metrics report"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("13 requests"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("requests/sec"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("p95"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("node reads:"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("queries:    13 (0 failed"), std::string::npos) << result.output;
}

// The wall-time line counts the requests the tool submitted. Behind a
// router one request runs on every shard it visits, and the line used to
// divide those shard executions (22 here) by the wall time.
TEST_F(CliPipelineTest, ServeBatchThroughRouterReportsRequestsNotShardExecutions) {
  const CommandResult result =
      RunTool("serve-batch --index=" + *tree_path_ + " --queries=" +
              WriteReplayFile("cli_serve_router.txt") +
              " --shards=4 --threads=1 --shard-max-l=400 --shard-max-w=400");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("(13 requests, "), std::string::npos) << result.output;
  // The metrics report counts the same 13 requests, not shard executions.
  EXPECT_NE(result.output.find("queries:    13 "), std::string::npos) << result.output;
}

TEST_F(CliPipelineTest, ServeBatchMatchesSingleQueryDistance) {
  const std::string queries_path = TempPath("cli_serve_one.txt");
  std::FILE* file = std::fopen(queries_path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fprintf(file, "nwc 5000 5000 400 400 5\n");
  std::fclose(file);

  const CommandResult single =
      RunTool("query --index=" + *tree_path_ + " --q=5000,5000 --l=400 --w=400 --n=5 "
          "--scheme=plus");
  ASSERT_EQ(single.exit_code, 0) << single.output;
  const CommandResult served =
      RunTool("serve-batch --index=" + *tree_path_ + " --queries=" + queries_path +
          " --threads=2 --scheme=plus --print");
  ASSERT_EQ(served.exit_code, 0) << served.output;

  // "distance %.3f" from query must appear as "distance %.3f" in the
  // served per-query line.
  const size_t pos = single.output.find("distance ");
  ASSERT_NE(pos, std::string::npos);
  const std::string distance = single.output.substr(pos, single.output.find(' ', pos + 9) - pos);
  EXPECT_NE(served.output.find(distance), std::string::npos)
      << "expected '" << distance << "' in: " << served.output;
}

TEST_F(CliPipelineTest, TraceEmitsChromeJsonToStdout) {
  const CommandResult result =
      RunTool("trace --index=" + *tree_path_ + " --q=5000,5000 --l=400 --w=400 --n=5 "
          "--scheme=iwp");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("\"traceEvents\":["), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("\"name\":\"query\""), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("\"name\":\"iwp_probe\""), std::string::npos) << result.output;
}

TEST_F(CliPipelineTest, TraceWritesFileAndPrintsSummary) {
  const std::string out_path = TempPath("cli_trace.json");
  const CommandResult result =
      RunTool("trace --index=" + *tree_path_ +
          " --q=5000,5000 --l=400 --w=400 --n=5 --scheme=star --out=" + out_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  // File gets the JSON; stdout gets the human summary.
  EXPECT_NE(result.output.find("wrote chrome trace"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("span(s)"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("traversal"), std::string::npos) << result.output;
  const std::string written = ReadFile(out_path);
  EXPECT_NE(written.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(written.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(CliPipelineTest, TraceJsonlCarriesSummaryLine) {
  const CommandResult result =
      RunTool("trace --index=" + *tree_path_ + " --q=5000,5000 --l=400 --w=400 --n=5 "
          "--scheme=plain --format=jsonl");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("\"summary\":true"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("\"kind\":\"window_query\""), std::string::npos)
      << result.output;
}

TEST_F(CliPipelineTest, TraceRunsKnwcWhenKIsGiven) {
  const CommandResult result =
      RunTool("trace --index=" + *tree_path_ + " --q=5000,5000 --l=400 --w=400 --n=4 "
          "--k=3 --m=1 --scheme=plus --format=jsonl");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("\"kind\":\"overlap_filter\""), std::string::npos)
      << result.output;
}

TEST_F(CliPipelineTest, ServeBatchExportsMetricsAndSlowTraces) {
  const std::string queries_path = TempPath("cli_serve_export.txt");
  std::FILE* file = std::fopen(queries_path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  for (int i = 0; i < 6; ++i) {
    std::fprintf(file, "nwc %d 5000 400 400 5\n", 2000 + i * 1000);
  }
  std::fclose(file);

  const std::string json_path = TempPath("cli_metrics.json");
  const std::string prom_path = TempPath("cli_metrics.prom");
  const std::string trace_dir = TempPath("cli_slow_traces");
  const CommandResult result =
      RunTool("serve-batch --index=" + *tree_path_ + " --queries=" + queries_path +
          " --threads=2 --scheme=star --metrics-json=" + json_path + " --prom=" + prom_path +
          " --trace-dir=" + trace_dir + " --slow-us=0");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("slow-query trace(s)"), std::string::npos) << result.output;

  const std::string json = ReadFile(json_path);
  EXPECT_NE(json.find("\"queries\":6"), std::string::npos) << json;
  EXPECT_NE(json.find("\"qps\":"), std::string::npos) << json;
  const std::string prom = ReadFile(prom_path);
  EXPECT_NE(prom.find("nwc_queries_total 6"), std::string::npos) << prom;
  EXPECT_NE(prom.find("nwc_query_latency_microseconds_count 6"), std::string::npos) << prom;
  // Every query was at/over the 0 us threshold, so all 6 traces landed in
  // the directory as loadable Chrome JSON.
  const std::string first_trace = ReadFile(trace_dir + "/slow_000.json");
  EXPECT_NE(first_trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(first_trace.find("latency_us="), std::string::npos);
  EXPECT_FALSE(ReadFile(trace_dir + "/slow_005.json").empty());
}

TEST_F(CliPipelineTest, ErrorPaths) {
  EXPECT_NE(RunTool("").exit_code, 0);
  EXPECT_NE(RunTool("frobnicate").exit_code, 0);
  EXPECT_NE(RunTool("generate --kind=nope --out=/tmp/x.csv").exit_code, 0);
  EXPECT_NE(RunTool("build --data=/does/not/exist.csv --out=/tmp/x.nwctree").exit_code, 0);
  EXPECT_NE(RunTool("stats --index=/does/not/exist.nwctree").exit_code, 0);
  EXPECT_NE(RunTool("query --index=" + *tree_path_ + " --q=bad --l=4 --w=4 --n=2").exit_code, 0);
  // DEP builds its density grid from the tree itself, so it needs no
  // dataset file and answers with the unpruned scheme's distance.
  const std::string dep_query = "query --index=" + *tree_path_ + " --q=1,1 --l=4 --w=4 --n=2";
  const CommandResult dep = RunTool(dep_query + " --scheme=dep");
  const CommandResult plain = RunTool(dep_query + " --scheme=plain");
  ASSERT_EQ(dep.exit_code, 0) << dep.output;
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  EXPECT_EQ(dep.output.substr(0, dep.output.find(',')),
            plain.output.substr(0, plain.output.find(',')));
  // trace: same input validation as query, plus the format switch.
  EXPECT_NE(RunTool("trace --q=1,1 --l=4 --w=4 --n=2").exit_code, 0);
  const CommandResult bad_format =
      RunTool("trace --index=" + *tree_path_ + " --q=1,1 --l=4 --w=4 --n=2 "
          "--scheme=plain --format=xml");
  EXPECT_NE(bad_format.exit_code, 0);
  EXPECT_NE(bad_format.output.find("--format"), std::string::npos) << bad_format.output;
  // serve-batch: missing/bad inputs must fail cleanly.
  EXPECT_NE(RunTool("serve-batch --index=" + *tree_path_).exit_code, 0);
  EXPECT_NE(RunTool("serve-batch --index=" + *tree_path_ + " --queries=/does/not/exist.txt")
                .exit_code,
            0);
  const std::string bad_path = TempPath("cli_bad_queries.txt");
  std::FILE* bad = std::fopen(bad_path.c_str(), "w");
  ASSERT_NE(bad, nullptr);
  std::fprintf(bad, "walk 1 2 3\n");
  std::fclose(bad);
  const CommandResult malformed =
      RunTool("serve-batch --index=" + *tree_path_ + " --queries=" + bad_path);
  EXPECT_NE(malformed.exit_code, 0);
  EXPECT_NE(malformed.output.find("line 1"), std::string::npos) << malformed.output;
  // Trailing junk (e.g. knwc arity under the nwc keyword) must be rejected,
  // not silently dropped.
  const std::string junk_path = TempPath("cli_junk_queries.txt");
  std::FILE* junk = std::fopen(junk_path.c_str(), "w");
  ASSERT_NE(junk, nullptr);
  std::fprintf(junk, "nwc 1 2 3 4 5 6 7\n");
  std::fclose(junk);
  const CommandResult trailing =
      RunTool("serve-batch --index=" + *tree_path_ + " --queries=" + junk_path);
  EXPECT_NE(trailing.exit_code, 0);
  EXPECT_NE(trailing.output.find("trailing"), std::string::npos) << trailing.output;
}

// Count flags are parsed, not cast: a negative or non-numeric value used
// to wrap into a huge size_t (--threads=-1 threw std::length_error,
// --queue=-1 made the queue unbounded) or read as 0 (--cache-mb=abc ran
// uncached). Each must now exit 1 with a typed error before any backend
// exists.
CommandResult ServeBatchWith(const std::string& tree_path, const std::string& flag) {
  const std::string queries_path = TempPath("cli_count_flag_queries.txt");
  std::FILE* queries = std::fopen(queries_path.c_str(), "w");
  EXPECT_NE(queries, nullptr);
  if (queries == nullptr) return CommandResult{};
  std::fprintf(queries, "nwc 5000 5000 300 300 4\n");
  std::fclose(queries);
  return RunTool("serve-batch --index=" + tree_path + " --queries=" + queries_path + " " + flag);
}

void ExpectFlagError(const CommandResult& result, const std::string& flag) {
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("error: InvalidArgument: " + flag), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("serving"), std::string::npos) << result.output;
}

TEST_F(CliPipelineTest, ServeBatchRejectsNegativeThreadCount) {
  ExpectFlagError(ServeBatchWith(*tree_path_, "--threads=-1"), "--threads");
}

TEST_F(CliPipelineTest, ServeBatchRejectsNegativeQueueCapacity) {
  ExpectFlagError(ServeBatchWith(*tree_path_, "--queue=-1"), "--queue");
}

TEST_F(CliPipelineTest, ServeBatchRejectsNonNumericCacheSize) {
  ExpectFlagError(ServeBatchWith(*tree_path_, "--cache-mb=abc"), "--cache-mb");
}

TEST_F(CliPipelineTest, ServeRejectsNegativeCountFlagBeforeListening) {
  const CommandResult result = RunTool("serve --index=" + *tree_path_ + " --threads=-1");
  ExpectFlagError(result, "--threads");
  EXPECT_EQ(result.output.find("listening"), std::string::npos) << result.output;
}

// The one-shot subcommands read their counts the same way: --count=-1
// used to die on an uncaught std::length_error, and --n=-1 searched for
// 2^64-1 objects and exited 0.
TEST_F(CliPipelineTest, GenerateRejectsNegativeCount) {
  const std::string out = TempPath("cli_negative_count.csv");
  const CommandResult result = RunTool("generate --kind=ca --count=-1 --out=" + out);
  ExpectFlagError(result, "--count");
  EXPECT_FALSE(std::ifstream(out).good()) << "nothing may be written";
}

TEST_F(CliPipelineTest, QueryRejectsNegativeN) {
  ExpectFlagError(
      RunTool("query --index=" + *tree_path_ + " --q=5000,5000 --l=400 --w=400 --n=-1"), "--n");
}

// Every flag is checked against its subcommand's table before any work.
// A malformed coordinate or length used to read as 0, --l=nan ran, and a
// misspelled flag or a value on a switch was ignored.
TEST_F(CliPipelineTest, QueryRejectsMalformedPoint) {
  ExpectFlagError(
      RunTool("query --index=" + *tree_path_ + " --q=abc,5000 --l=400 --w=400 --n=3"), "--q");
}

TEST_F(CliPipelineTest, QueryRejectsMalformedLength) {
  ExpectFlagError(
      RunTool("query --index=" + *tree_path_ + " --q=5000,5000 --l=abc --w=400 --n=3"), "--l");
}

TEST_F(CliPipelineTest, QueryRejectsNonFiniteLength) {
  ExpectFlagError(
      RunTool("query --index=" + *tree_path_ + " --q=5000,5000 --l=nan --w=400 --n=3"), "--l");
}

TEST_F(CliPipelineTest, GenerateRejectsMisspelledFlag) {
  const std::string out = TempPath("cli_misspelled_flag.csv");
  const CommandResult result =
      RunTool("generate --kind=uniform --count=2000 --cuont=5 --out=" + out);
  ExpectFlagError(result, "--cuont");
  EXPECT_FALSE(std::ifstream(out).good()) << "nothing may be written";
}

TEST_F(CliPipelineTest, BuildRejectsValueOnSwitch) {
  const std::string out = TempPath("cli_switch_value.nwctree");
  ExpectFlagError(RunTool("build --data=" + *csv_path_ + " --out=" + out + " --str=yes"), "--str");
  EXPECT_FALSE(std::ifstream(out).good()) << "nothing may be written";
}

// nwc_load checks its flags the same way, before it prints its banner or
// opens a connection (--port=70000 used to connect to port 4464).
void ExpectLoadFlagError(const std::string& args, const std::string& flag) {
  const CommandResult result = RunBinary(NWC_LOAD_PATH, args);
  ExpectFlagError(result, flag);
  EXPECT_EQ(result.output.find("nwc_load:"), std::string::npos) << result.output;
}

TEST_F(CliPipelineTest, LoadRejectsOutOfRangePort) {
  ExpectLoadFlagError("--port=70000", "--port");
}

TEST_F(CliPipelineTest, LoadRejectsNegativeConnections) {
  ExpectLoadFlagError("--port=1 --connections=-1", "--connections");
}

TEST_F(CliPipelineTest, LoadRejectsMalformedQps) {
  ExpectLoadFlagError("--port=1 --qps=abc", "--qps");
}

TEST_F(CliPipelineTest, LoadRejectsMisspelledFlag) {
  ExpectLoadFlagError("--port=1 --conections=1", "--conections");
}

// The IWP staleness mode is gone: every published epoch carries an IWP.
TEST_F(CliPipelineTest, ServeBatchRejectsIwpStaleness) {
  ExpectFlagError(ServeBatchWith(*tree_path_, "--iwp-staleness=5"), "--iwp-staleness");
}

TEST_F(CliPipelineTest, ServeRejectsIwpStalenessBeforeListening) {
  const CommandResult result = RunTool("serve --index=" + *tree_path_ + " --iwp-staleness=5");
  ExpectFlagError(result, "--iwp-staleness");
  EXPECT_EQ(result.output.find("listening"), std::string::npos) << result.output;
}

// The retry policy is gone: an injected fault fails the query it hits.
TEST_F(CliPipelineTest, ServeBatchRejectsRetries) {
  ExpectFlagError(ServeBatchWith(*tree_path_, "--retries=2"), "--retries");
}

TEST_F(CliPipelineTest, ServeRejectsRetryBackoffBeforeListening) {
  const CommandResult result =
      RunTool("serve --index=" + *tree_path_ + " --retry-backoff-us=100");
  ExpectFlagError(result, "--retry-backoff-us");
  EXPECT_EQ(result.output.find("listening"), std::string::npos) << result.output;
}

// The router answers exactly or fails: there is no partial-answer policy,
// no single-shard fault scope and no halo knob to set.
TEST_F(CliPipelineTest, ServeBatchRejectsDeletedRouterFlags) {
  for (const std::string flag : {"--shard-partial", "--fault-shard", "--shard-halo"}) {
    SCOPED_TRACE(flag);
    ExpectFlagError(ServeBatchWith(*tree_path_, "--shards=4 " + flag + "=1"), flag);
  }
}

// serve keeps its slow-query traces in memory for /debug/slow and writes
// none, so --trace-dir is a flag of serve-batch only. (No --index here: a
// serve that took the flag would otherwise start listening.)
TEST_F(CliPipelineTest, ServeRejectsTraceDir) {
  const CommandResult result = RunTool("serve --trace-dir=x");
  ExpectFlagError(result, "--trace-dir");
  EXPECT_EQ(result.output.find("listening"), std::string::npos) << result.output;
}

// A 4.7-unit cell over the 10,000-unit space needs 2128 x 2128 cells, past
// the density grid's 2048 x 2048 bound.
TEST_F(CliPipelineTest, QueryRejectsGridCellTooFineForTheSpace) {
  ExpectFlagError(RunTool("query --index=" + *tree_path_ +
                          " --q=5000,5000 --l=400 --w=400 --n=3 --scheme=dep --grid-cell=4.7"),
                  "grid_cell_size");
}

TEST_F(CliPipelineTest, ServeRejectsOutOfRangePortBeforeListening) {
  const CommandResult result = RunTool("serve --index=" + *tree_path_ + " --port=70000");
  ExpectFlagError(result, "--port");
  EXPECT_EQ(result.output.find("listening"), std::string::npos) << result.output;
}

// A non-finite mutation is rejected before anything is served or applied,
// with the line that holds it: the replay exits 1 instead of publishing an
// epoch whose tree no query can answer from.
TEST_F(CliPipelineTest, ServeBatchRejectsNonFiniteMutation) {
  for (const std::string bad : {"nan", "inf", "-inf"}) {
    SCOPED_TRACE(bad);
    const std::string mutations_path = TempPath("cli_nonfinite_mutations.txt");
    std::FILE* file = std::fopen(mutations_path.c_str(), "w");
    ASSERT_NE(file, nullptr);
    std::fprintf(file, "insert 900001 5000 5000\ninsert 900002 %s 5000\n", bad.c_str());
    std::fclose(file);
    const CommandResult result =
        RunTool("serve-batch --index=" + *tree_path_ + " --queries=" +
                WriteReplayFile("cli_nonfinite_queries.txt") + " --mutations=" + mutations_path +
                " --mutate-every=2 --threads=1");
    EXPECT_EQ(result.exit_code, 1) << result.output;
    EXPECT_NE(result.output.find("error: InvalidArgument"), std::string::npos) << result.output;
    EXPECT_NE(result.output.find("line 2"), std::string::npos) << result.output;
    EXPECT_EQ(result.output.find("serving"), std::string::npos) << result.output;
  }
}

// The grid is built for every scheme, so --grid-cell is validated for a
// scheme that never reads the grid too.
TEST_F(CliPipelineTest, QueryValidatesGridCellForEveryScheme) {
  for (const std::string scheme : {"plain", "srr", "iwp"}) {
    SCOPED_TRACE(scheme);
    ExpectFlagError(RunTool("query --index=" + *tree_path_ +
                            " --q=5000,5000 --l=400 --w=400 --n=3 --grid-cell=4.7 --scheme=" +
                            scheme),
                    "grid_cell_size");
  }
}

}  // namespace
}  // namespace nwc
