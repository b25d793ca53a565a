// nwc_load — open-loop load generator for `nwc_tool serve`.
//
// Flags are declared once in kLoadFlags below, whose help lines are the
// per-flag reference and the usage text; an unknown flag, a malformed or
// out-of-range value, or a missing --port exits 1 before any connection
// is attempted.
//
// Holds the target arrival rate regardless of server speed (open loop):
// request i is due at start + i/qps and its latency is measured from that
// due time, so server-side queueing is charged to the server rather than
// silently thinning the arrival stream (no coordinated omission). Requests
// fan out over --connections pipelined connections with at most --pipeline
// in flight each.
//
// The workload is either a query file in the serve-batch format
// ("nwc X Y L W N" / "knwc X Y L W N K M" lines) cycled round-robin, or —
// with --synthetic=N — N deterministic queries over the normalized data
// space, 80% of them aimed at a central hotspot covering 20% of each axis
// (the classic skew rule), every eighth one a kNWC query.
//
// Without --scheme/--measure requests carry no option override and run
// under the server's default preset. Exit code 0 when every request was
// answered (typed error responses included), 1 otherwise.
//
// --trace sets the envelope trace bit on every request: the server
// annotates each response with its pipeline timestamps and the report
// gains a second line splitting latency into network, server-queue, and
// execute components — the fastest way to tell whether a p99 regression
// is queueing or query work (see EXPERIMENTS.md).
//
// Prints achieved QPS and p50/p95/p99/max latency (linear-interpolated
// quantiles over the full sample); see EXPERIMENTS.md for the
// server-path benchmark recipe built on this tool.

#include <cstdio>
#include <string>
#include <vector>

#include "datasets/dataset.h"
#include "flags.h"
#include "net/load_gen.h"
#include "service/workload.h"

namespace nwc {
namespace {

using enum FlagType;

constexpr Flag kLoadFlags[] = {
    {.name = "port", .type = kCount, .help = "server port", .required = true, .max = 65535},
    {"host", kText, "127.0.0.1", "server address"},
    {"qps", kDouble, "1000", "target arrival rate, requests per second"},
    {"connections", kCount, "4", "pipelined connections"},
    {"pipeline", kCount, "32", "requests in flight per connection"},
    {"duration", kDouble, "2", "seconds of sending"},
    {"deadline-us", kCount, "0", "per-request deadline sent to the server; 0 = none"},
    {"queries", kText, nullptr, "query file in the serve-batch format (default: --synthetic)"},
    {"synthetic", kCount, "256", "size of the synthetic skewed workload"},
    {"seed", kCount, "1", "synthetic workload seed"},
    {"trace", kBool, nullptr, "ask for server-side timing on every request"},
};

int Run(int argc, char** argv) {
  const std::optional<Flags> flags =
      Flags::Parse("nwc_load", JoinFlags({kLoadFlags, kOptionFlags}), argc, argv, 1);
  if (!flags) return 1;

  LoadGenConfig config;
  config.host = flags->text("host");
  config.port = static_cast<uint16_t>(flags->count("port"));
  config.target_qps = flags->number("qps");
  config.connections = flags->count("connections");
  config.pipeline_depth = flags->count("pipeline");
  config.duration_seconds = flags->number("duration");
  config.deadline_micros = flags->count("deadline-us");
  config.trace = flags->has("trace");
  if (flags->has("scheme") || flags->has("measure")) config.options = OptionsFromFlags(*flags);

  std::vector<WorkloadEntry> workload;
  if (flags->has("queries")) {
    Result<std::vector<WorkloadEntry>> loaded = LoadWorkloadFile(flags->text("queries"));
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    workload = std::move(loaded).value();
  } else {
    workload = MakeSkewedWorkload(flags->count("synthetic"), flags->count("seed"),
                                  NormalizedSpace());
  }
  std::printf("nwc_load: %s:%u, %.0f q/s target, %zu connection(s) x depth %zu, %.1f s, "
              "%zu-query workload%s\n",
              config.host.c_str(), static_cast<unsigned>(config.port), config.target_qps,
              config.connections, config.pipeline_depth, config.duration_seconds,
              workload.size(), config.trace ? ", traced" : "");
  Result<LoadGenReport> report = RunLoadGen(config, workload);
  if (!report.ok()) return Fail(report.status().ToString());
  std::printf("%s", report->ToString().c_str());
  return report->lost == 0 && report->received == report->sent ? 0 : 1;
}

}  // namespace
}  // namespace nwc

int main(int argc, char** argv) { return nwc::Run(argc, argv); }
