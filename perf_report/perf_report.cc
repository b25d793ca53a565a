// perf_report: one seeded workload of the serving stack, measured end to
// end and, with --trace, layer by layer.
//
//   perf_report --workload=<name> --seed=<n> [--seconds=<s>] [--trace] [--quick]
//
// Each invocation builds the workload's stack several times (the median
// build is setup_s; the last build stays up), runs an untimed warm pass,
// then the timed pass with tracing off, split into slices. --trace then
// repeats the timed pass recording spans, and runs the per-layer probes.
// Answers are checked against an oracle before the process exits.
//
// Output: a `host ...` line, `metric <name> <value> <unit> [n=<samples>]`
// lines, `span ...` self-time lines under --trace, and a final
// `result <attempted> <failed> <correct>` line. Spans are written to
// bench_out/perf_<workload>.trace.json (Chrome trace-event format).
// Exit status: 0 ok, 3 an oracle check failed, 2 bad arguments.

#include <sys/stat.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "perf/spans.h"
#include "perf/stats.h"
#include "workloads.h"

namespace {

using namespace nwc::perf;

struct Args {
  std::string workload;
  RunOptions run;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->run.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      args->trace = true;
    } else if (arg == "--quick") {
      args->run.quick = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  if (args->run.quick) args->seconds = 1.0;
  return !args->workload.empty() && args->seconds > 0.0;
}

// Runs the timed pass as `slices` back-to-back passes, so one burst of
// host noise moves one slice rather than the medians taken over them.
std::vector<Pass> RunSlices(Workload& workload, double seconds, size_t slices,
                            SpanRecorder* spans) {
  std::vector<Pass> passes;
  for (size_t i = 0; i < slices; ++i) {
    passes.push_back(workload.Run(seconds / static_cast<double>(slices), spans));
  }
  return passes;
}

double MedianQps(const std::vector<Pass>& passes) {
  std::vector<double> qps;
  for (const Pass& pass : passes) qps.push_back(pass.Qps());
  return Median(qps);
}

void Tally(const std::vector<Pass>& passes, uint64_t* attempted, uint64_t* failed) {
  for (const Pass& pass : passes) {
    *attempted += pass.ok + pass.failed;
    *failed += pass.failed;
  }
}

// Each slice's `q` quantile of `samples`, in µs, and its median over the
// slices that have samples; `*count` gets the samples in all of them.
double SliceQuantileUs(const std::vector<Pass>& passes, std::vector<uint64_t> Pass::*samples,
                       double q, uint64_t* count) {
  std::vector<double> per_slice;
  *count = 0;
  for (const Pass& pass : passes) {
    std::vector<uint64_t> slice = pass.*samples;
    if (slice.empty()) continue;
    *count += slice.size();
    per_slice.push_back(static_cast<double>(Quantile(slice, q)) / 1e3);
  }
  return Median(per_slice);
}

// Every metric is a median over the slices, so a burst of host noise in
// one slice moves that slice only: latency percentiles are taken per slice
// first (README.md compares this with pooling the slices' samples).
void EmitEndToEnd(const std::vector<double>& setup_seconds, const std::vector<Pass>& passes,
                  double rss_mb) {
  EmitMetric("setup_s", Median(setup_seconds), "s", setup_seconds.size());
  EmitMetric("qps", MedianQps(passes), "1/s", passes.size());
  const struct {
    const char* name;
    std::vector<uint64_t> Pass::*samples;
    double q;
  } percentiles[] = {{"nwc_p50_us", &Pass::nwc_ns, 0.50},
                     {"nwc_p99_us", &Pass::nwc_ns, 0.99},
                     {"knwc_p50_us", &Pass::knwc_ns, 0.50},
                     {"knwc_p99_us", &Pass::knwc_ns, 0.99}};
  for (const auto& p : percentiles) {
    uint64_t count = 0;
    const double value = SliceQuantileUs(passes, p.samples, p.q, &count);
    EmitMetric(p.name, value, "us", count);
  }
  EmitMetric("rss_peak_mb", rss_mb, "MB");
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Tally(passes, &attempted, &failed);
  EmitMetric("failed_frac",
             attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
             "1", attempted);
}

// Queue wait and execute time of the traced passes' requests, and what
// recording cost against the untraced passes.
void EmitTracedPass(const std::vector<Pass>& traced, const std::vector<Pass>& untraced) {
  std::vector<uint64_t> queue_us;
  std::vector<uint64_t> exec_us;
  for (const Pass& pass : traced) {
    queue_us.insert(queue_us.end(), pass.queue_us.begin(), pass.queue_us.end());
    exec_us.insert(exec_us.end(), pass.exec_us.begin(), pass.exec_us.end());
  }
  EmitMetric("service.queue_us_mean", Mean(queue_us), "us", queue_us.size());
  EmitMetric("service.queue_us_p99", static_cast<double>(Quantile(queue_us, 0.99)), "us",
             queue_us.size());
  EmitMetric("service.exec_us_mean", Mean(exec_us), "us", exec_us.size());
  EmitMetric("service.exec_us_p99", static_cast<double>(Quantile(exec_us, 0.99)), "us",
             exec_us.size());
  const double untraced_qps = MedianQps(untraced);
  EmitMetric("trace.overhead_frac",
             untraced_qps > 0.0 ? 1.0 - MedianQps(traced) / untraced_qps : 0.0, "1");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perf_report --workload=<name> --seed=<n> [--seconds=<s>] [--trace] "
                 "[--quick]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.run);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("%s workload=%s\n", HostLine(args.run.seed).c_str(), args.workload.c_str());
  // A write to a socket its peer already closed must fail with EPIPE, not
  // end the process: client and server share it here.
  std::signal(SIGPIPE, SIG_IGN);

  // Set-up time is the median of at least three builds (one in quick and
  // traced runs), and cheap builds repeat for 2 s: the CA stacks build in
  // about 20 ms, and a host burst of a few hundred ms would otherwise
  // cover every build. The last build stays up.
  const size_t min_builds = args.run.quick || args.trace ? 1 : 3;
  const size_t max_builds = args.run.quick || args.trace ? 1 : 100;
  std::vector<double> setup_seconds;
  double setup_total = 0.0;
  while (setup_seconds.size() < min_builds ||
         (setup_seconds.size() < max_builds && setup_total < 2.0)) {
    if (!setup_seconds.empty()) workload->Teardown();
    const uint64_t start = NowNs();
    workload->Setup();
    setup_seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
    setup_total += setup_seconds.back();
  }

  const size_t slices = args.run.quick ? 2 : 10;
  workload->Warm(std::clamp(args.seconds / 5.0, 0.2, 2.0));
  const std::vector<Pass> passes = RunSlices(*workload, args.seconds, slices, nullptr);
  EmitEndToEnd(setup_seconds, passes, PeakRssMb());
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Tally(passes, &attempted, &failed);

  SpanRecorder spans;
  std::vector<Pass> traced;
  if (args.trace) {
    traced = RunSlices(*workload, args.seconds, slices, &spans);
    EmitTracedPass(traced, passes);
    Tally(traced, &attempted, &failed);
  }

  size_t mismatches = workload->Verify();
  if (args.trace) {
    mismatches += RunLayerProbes(workload->Targets(), args.run, &spans);
    for (const SelfTime& layer : spans.SelfTimes()) {
      std::printf("span %s count=%llu self_us=%.3f total_us=%.3f\n", layer.name.c_str(),
                  static_cast<unsigned long long>(layer.count), layer.self_us, layer.total_us);
    }
    ::mkdir("bench_out", 0755);
    const std::string path = "bench_out/perf_" + args.workload + ".trace.json";
    nwc::CheckOk(spans.WriteChromeJson(path), "writing the trace");
    std::printf("trace %s spans=%zu\n", path.c_str(), spans.size());
  }
  workload->Teardown();

  std::printf("result %llu %llu %d\n", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), mismatches == 0 ? 1 : 0);
  if (mismatches > 0) {
    std::fprintf(stderr, "FAIL: %zu answer(s) disagreed with the oracle\n", mismatches);
    return 3;
  }
  return 0;
}
