// nwc_tool — command-line front end for the library.
//
// Subcommands:
//   generate --kind=<uniform|gaussian|ca|ny> --count=N --seed=S --out=F.csv
//       Write a synthetic dataset as CSV.
//   build    --data=F.csv --out=F.nwctree [--max-entries=50] [--str]
//       Build an R*-tree over a CSV dataset and save it.
//   query    --index=F.nwctree --q=X,Y --l=L --w=W --n=N
//            [--scheme=<plain|srr|dip|dep|iwp|plus|star>]
//            [--measure=<min|max|avg|nearest>] [--data=F.csv]
//       Run one NWC query and print the group plus the I/O cost.
//       (--data is required for schemes using DEP, to build the grid.)
//   knwc     --index=F.nwctree --q=X,Y --l=L --w=W --n=N --k=K --m=M
//            [--scheme=...] [--data=F.csv]
//       Run one kNWC query.
//   stats    --index=F.nwctree
//       Print index statistics.
//   serve-batch --index=F.nwctree --queries=F.txt [--threads=4] [--queue=256]
//            [--scheme=...] [--measure=...] [--print]
//            [--metrics-json=F.json] [--prom=F.prom]
//            [--trace-dir=DIR] [--slow-us=N] [--trace-ring=32]
//            [--deadline-us=N] [--inject-faults=SPEC] [--shed-watermark=N]
//            [--retries=N] [--retry-backoff-us=100]
//            [--cache-mb=N]
//       Replay a query file through the concurrent QueryService across N
//       worker threads and print a metrics report (throughput, latency
//       quantiles, merged per-phase I/O). The query file holds one query
//       per line — "nwc X Y L W N" or "knwc X Y L W N K M" — with '#'
//       comments; the density grid / IWP index needed by the scheme are
//       built from the loaded tree itself, so no --data file is needed.
//       --metrics-json / --prom dump the final MetricsSnapshot as JSON /
//       Prometheus text. --trace-dir (or --slow-us) turns on per-query
//       tracing: queries at or over --slow-us microseconds (0 = all) are
//       retained in a --trace-ring-capacity ring and written to DIR as
//       Chrome trace-event JSON, one file per query.
//       Robustness knobs: --deadline-us bounds each query from submit
//       (DeadlineExceeded past it); --inject-faults runs a deterministic
//       fault schedule against the page reads ("every:N", "once:K",
//       "bernoulli:P[:SEED]", "spike:N:MICROS" — see storage/
//       fault_injector.h); --shed-watermark sheds blocking submits past
//       that queue depth; --retries / --retry-backoff-us retry transient
//       I/O faults with exponential backoff.
//       Caching: --cache-mb gives the service a sharded result cache of
//       that many MiB (repeat queries answer from it with zero tree
//       reads; the metrics report shows hits/misses/evictions). Count
//       flags (--threads, --queue, --cache-mb, ...) must be non-negative
//       integers; anything else exits 1 before a backend is built.
//       Every backend serves from an MVCC SnapshotStore (its writer copy
//       is built on the first update, so an unmutated run pays nothing
//       for it). Dynamic data: --mutations=F.txt replays a mutation file
//       (one "insert ID X Y" / "delete ID X Y" per line, "---" closing a
//       batch) interleaved with the query stream — each batch applies
//       and publishes a new epoch after every --mutate-every queries
//       (default: spread evenly).
//       --iwp-staleness=N lets published snapshots omit the IWP for up
//       to N mutations since its last build (queries degrade to
//       SRR+DIP+DEP for those epochs).
//       Sharded serving: --shards=N splits the tree into N Z-order range
//       shards behind a ShardRouter (one store + service per shard).
//       Requires --shard-max-l/--shard-max-w (upper bounds on any query's
//       window dims; larger queries are rejected). --shard-halo=F scales
//       the halo replication band, --shard-partial=<fail|degrade> picks
//       the partial-failure policy, and --fault-shard=S scopes
//       --inject-faults to one shard.
//   serve    --index=F.nwctree [--host=127.0.0.1] [--port=0]
//            [--threads=4] [--queue=256] [--scheme=...] [--measure=...]
//            [--no-iwp] [--no-grid] [--max-frame-bytes=1048576]
//            [--deadline-us=N] [--shed-watermark=N] [--cache-mb=N]
//            [--iwp-staleness=N]
//            [--metrics-json=F.json] [--prom=F.prom]
//       Serve NWC/kNWC queries over TCP (the binary frame protocol of
//       src/net/wire.h) until SIGINT/SIGTERM, then drain gracefully:
//       stop accepting, finish in-flight queries (deadlines still
//       apply), flush every response, print the final metrics report,
//       exit 0. --port=0 picks an ephemeral port (printed on startup as
//       "listening on HOST:PORT"). GET /metrics on the same port
//       answers with the Prometheus exposition. Unlike serve-batch the
//       session builds the IWP index and density grid by default so
//       clients may override the scheme per request; --no-iwp /
//       --no-grid trade that flexibility for startup time and memory.
//       Drive it with nwc_load (open-loop QPS, pipelined connections).
//       Clients may send kUpdateRequest frames (insert/delete batches):
//       the index is served from an MVCC SnapshotStore, and each batch
//       publishes a new epoch that later queries observe while in-flight
//       ones keep their snapshot. The server has no access control: any
//       client that can connect can mutate the data. --iwp-staleness as
//       in serve-batch.
//       --shards=N (with --shard-max-l/--shard-max-w and the other
//       --shard-* knobs, as in serve-batch) serves from a ShardRouter
//       over N Z-order range shards; /metrics then includes per-shard
//       nwc_shard_* series alongside the aggregated families.
//   trace    --index=F.nwctree --q=X,Y --l=L --w=W --n=N [--k=K --m=M]
//            [--scheme=...] [--measure=...] [--data=F.csv]
//            [--format=<chrome|jsonl>] [--out=F.json]
//       Run one NWC (or, with --k, kNWC) query with tracing enabled and
//       emit the trace: Chrome trace-event JSON (open in Perfetto /
//       chrome://tracing) or JSONL for scripts. Without --out the trace
//       goes to stdout; with --out a human summary (spans, pruning
//       counters, per-phase reads) is printed instead.
//
// Example session:
//   nwc_tool generate --kind=ca --out=/tmp/ca.csv
//   nwc_tool build --data=/tmp/ca.csv --out=/tmp/ca.nwctree --str
//   nwc_tool query --index=/tmp/ca.nwctree --data=/tmp/ca.csv
//       --q=5000,5000 --l=64 --w=64 --n=8 --scheme=star
//   nwc_tool trace --index=/tmp/ca.nwctree --data=/tmp/ca.csv
//       --q=5000,5000 --l=64 --w=64 --n=8 --scheme=star --out=/tmp/q.json

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/knwc_engine.h"
#include "core/nwc_engine.h"
#include "datasets/dataset.h"
#include "datasets/generators.h"
#include "grid/density_grid.h"
#include "net/server.h"
#include "net/shutdown_signal.h"
#include "obs/prometheus.h"
#include "obs/query_trace.h"
#include "obs/trace_export.h"
#include "rtree/bulk_load.h"
#include "rtree/iwp_index.h"
#include "rtree/serialize.h"
#include "rtree/tree_stats.h"
#include "rtree/validate.h"
#include "service/query_service.h"
#include "service/session.h"
#include "service/shard_router.h"
#include "service/workload.h"

namespace nwc {
namespace {

// --key=value argument bag.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) continue;
      const char* eq = std::strchr(arg, '=');
      if (eq == nullptr) {
        values_[std::string(arg + 2)] = "true";
      } else {
        values_[std::string(arg + 2, eq)] = std::string(eq + 1);
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }
  long GetLong(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtol(it->second.c_str(), nullptr, 10);
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

/// Reads count flags (object counts, threads, queue slots, microseconds,
/// MiB, shards, ports): an absent flag gives its fallback; a negative,
/// non-numeric or above-`max` value reads as the fallback and records
/// InvalidArgument in status() (the first one wins), so it can never wrap
/// into a huge size_t.
/// Config builders read all their counts, then check status() once.
class CountFlags {
 public:
  explicit CountFlags(const Args& args) : args_(args) {}

  size_t Get(const std::string& key, size_t fallback,
             size_t max = std::numeric_limits<size_t>::max()) {
    if (!args_.Has(key)) return fallback;
    const std::string text = args_.Get(key);
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    // strtoull skips whitespace and negates a leading '-', so insist on a
    // leading digit and nothing after the number.
    if (text.empty() || text[0] < '0' || text[0] > '9' || *end != '\0' || errno == ERANGE ||
        value > max) {
      if (status_.ok()) {
        status_ = Status::InvalidArgument(StrFormat(
            "--%s must be an integer in [0, %zu], got '%s'", key.c_str(), max, text.c_str()));
      }
      return fallback;
    }
    return static_cast<size_t>(value);
  }

  const Status& status() const { return status_; }

 private:
  const Args& args_;
  Status status_;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

Result<NwcOptions> ParseOptions(const Args& args) {
  NwcOptions options;
  const std::string scheme = args.Get("scheme", "star");
  if (scheme == "plain") {
    options = NwcOptions::Plain();
  } else if (scheme == "srr") {
    options = NwcOptions::Srr();
  } else if (scheme == "dip") {
    options = NwcOptions::Dip();
  } else if (scheme == "dep") {
    options = NwcOptions::Dep();
  } else if (scheme == "iwp") {
    options = NwcOptions::Iwp();
  } else if (scheme == "plus") {
    options = NwcOptions::Plus();
  } else if (scheme == "star") {
    options = NwcOptions::Star();
  } else {
    return Status::InvalidArgument("unknown --scheme " + scheme);
  }
  const std::string measure = args.Get("measure", "nearest");
  if (measure == "min") {
    options.measure = DistanceMeasure::kMin;
  } else if (measure == "max") {
    options.measure = DistanceMeasure::kMax;
  } else if (measure == "avg") {
    options.measure = DistanceMeasure::kAvg;
  } else if (measure == "nearest") {
    options.measure = DistanceMeasure::kNearestWindow;
  } else {
    return Status::InvalidArgument("unknown --measure " + measure);
  }
  return options;
}

Result<Point> ParsePoint(const std::string& text) {
  const size_t comma = text.find(',');
  if (comma == std::string::npos) {
    return Status::InvalidArgument("--q must be X,Y");
  }
  return Point{std::strtod(text.substr(0, comma).c_str(), nullptr),
               std::strtod(text.substr(comma + 1).c_str(), nullptr)};
}

int CmdGenerate(const Args& args) {
  struct Generator {
    const char* kind;
    size_t default_count;
    Dataset (*make)(size_t count, uint64_t seed);
  };
  static constexpr Generator kGenerators[] = {
      {"uniform", 100000, [](size_t n, uint64_t seed) { return MakeUniform(n, seed); }},
      {"gaussian", 250000, [](size_t n, uint64_t seed) { return MakeGaussian(n, seed); }},
      {"ca", 62556, [](size_t n, uint64_t seed) { return MakeCaLike(seed, n); }},
      {"ny", 255259, [](size_t n, uint64_t seed) { return MakeNyLike(seed, n); }},
  };
  const std::string kind = args.Get("kind", "uniform");
  const Generator* generator = nullptr;
  for (const Generator& g : kGenerators) {
    if (kind == g.kind) generator = &g;
  }
  if (generator == nullptr) return Fail("unknown --kind " + kind);
  CountFlags counts(args);
  const size_t count = counts.Get("count", generator->default_count);
  if (!counts.status().ok()) return Fail(counts.status().ToString());
  const std::string out = args.Get("out");
  if (out.empty()) return Fail("--out is required");

  const uint64_t seed = static_cast<uint64_t>(args.GetLong("seed", 1));
  const Dataset dataset = generator->make(count, seed);
  const Status saved = SaveDatasetCsv(dataset, out);
  if (!saved.ok()) return Fail(saved.ToString());
  std::printf("wrote %zu objects (%s) to %s\n", dataset.size(), dataset.name.c_str(),
              out.c_str());
  return 0;
}

int CmdBuild(const Args& args) {
  const std::string data = args.Get("data");
  const std::string out = args.Get("out");
  if (data.empty() || out.empty()) return Fail("--data and --out are required");
  CountFlags counts(args);
  RTreeOptions options;
  options.max_entries = static_cast<int>(
      counts.Get("max-entries", kMaxEntriesDefault, std::numeric_limits<int>::max()));
  if (!counts.status().ok()) return Fail(counts.status().ToString());
  // 64-bit product: max_entries may be as large as INT_MAX.
  options.min_entries = static_cast<int>(int64_t{options.max_entries} * 2 / 5);
  const Status valid = options.Validate();
  if (!valid.ok()) return Fail(valid.ToString());
  Result<Dataset> dataset = LoadDatasetCsv(data, "cli");
  if (!dataset.ok()) return Fail(dataset.status().ToString());

  RStarTree tree(options);
  if (args.Has("str")) {
    tree = BulkLoadStr(dataset->objects, options);
  } else {
    for (const DataObject& obj : dataset->objects) tree.Insert(obj);
  }
  const Status saved = SaveTree(tree, out);
  if (!saved.ok()) return Fail(saved.ToString());
  std::printf("built %s tree: %zu objects, %zu nodes, height %d -> %s\n",
              args.Has("str") ? "STR" : "R*", tree.size(), tree.node_count(), tree.height(),
              out.c_str());
  return 0;
}

struct LoadedIndex {
  RStarTree tree;
  std::unique_ptr<IwpIndex> iwp;
  std::unique_ptr<DensityGrid> grid;
};

Result<LoadedIndex> LoadIndexFor(const Args& args, const NwcOptions& options) {
  const std::string index_path = args.Get("index");
  if (index_path.empty()) return Status::InvalidArgument("--index is required");
  Result<RStarTree> tree = LoadTree(index_path);
  if (!tree.ok()) return tree.status();
  LoadedIndex loaded{std::move(tree).value(), nullptr, nullptr};
  if (options.use_iwp) {
    loaded.iwp = std::make_unique<IwpIndex>(IwpIndex::Build(loaded.tree));
  }
  if (options.use_dep) {
    const std::string data = args.Get("data");
    if (data.empty()) {
      return Status::InvalidArgument("--data is required for DEP schemes (density grid)");
    }
    Result<Dataset> dataset = LoadDatasetCsv(data, "cli");
    if (!dataset.ok()) return dataset.status();
    loaded.grid = std::make_unique<DensityGrid>(
        NormalizedSpace(), args.GetDouble("grid-cell", 25.0), dataset->objects);
  }
  return loaded;
}

int CmdQuery(const Args& args) {
  const Result<NwcOptions> options = ParseOptions(args);
  if (!options.ok()) return Fail(options.status().ToString());
  const Result<Point> q = ParsePoint(args.Get("q", ""));
  if (!q.ok()) return Fail(q.status().ToString());
  CountFlags counts(args);
  const NwcQuery query{*q, args.GetDouble("l", 8.0), args.GetDouble("w", 8.0),
                       counts.Get("n", 8)};
  if (!counts.status().ok()) return Fail(counts.status().ToString());
  Result<LoadedIndex> index = LoadIndexFor(args, *options);
  if (!index.ok()) return Fail(index.status().ToString());

  NwcEngine engine(index->tree, index->iwp.get(), index->grid.get());
  IoCounter io;
  const Result<NwcResult> result = engine.Execute(query, *options, &io);
  if (!result.ok()) return Fail(result.status().ToString());
  if (!result->found) {
    std::printf("no qualified window (no %g x %g window holds %zu objects)\n", query.length,
                query.width, query.n);
    return 0;
  }
  std::printf("distance %.3f (%s measure), %llu node reads\n", result->distance,
              DistanceMeasureName(options->measure),
              static_cast<unsigned long long>(io.query_total()));
  for (const DataObject& obj : result->objects) {
    std::printf("  %u (%.3f, %.3f)\n", obj.id, obj.pos.x, obj.pos.y);
  }
  return 0;
}

int CmdKnwc(const Args& args) {
  const Result<NwcOptions> options = ParseOptions(args);
  if (!options.ok()) return Fail(options.status().ToString());
  const Result<Point> q = ParsePoint(args.Get("q", ""));
  if (!q.ok()) return Fail(q.status().ToString());
  CountFlags counts(args);
  const KnwcQuery query{NwcQuery{*q, args.GetDouble("l", 8.0), args.GetDouble("w", 8.0),
                                 counts.Get("n", 8)},
                        counts.Get("k", 4), counts.Get("m", 2)};
  if (!counts.status().ok()) return Fail(counts.status().ToString());
  Result<LoadedIndex> index = LoadIndexFor(args, *options);
  if (!index.ok()) return Fail(index.status().ToString());

  KnwcEngine engine(index->tree, index->iwp.get(), index->grid.get());
  IoCounter io;
  const Result<KnwcResult> result = engine.Execute(query, *options, &io);
  if (!result.ok()) return Fail(result.status().ToString());
  std::printf("%zu group(s), %llu node reads\n", result->groups.size(),
              static_cast<unsigned long long>(io.query_total()));
  size_t rank = 1;
  for (const NwcGroup& group : result->groups) {
    std::printf("group %zu: distance %.3f, ids:", rank++, group.distance);
    for (const DataObject& obj : group.objects) std::printf(" %u", obj.id);
    std::printf("\n");
  }
  return 0;
}

// Human summary of a recorded trace: where the reads went, what each
// technique pruned, how deep the heap got. Printed when the JSON itself
// goes to a file.
void PrintTraceSummary(const QueryTrace& trace, const IoCounter& io) {
  std::printf("trace: %zu span(s), heap high-water %llu\n", trace.spans().size(),
              static_cast<unsigned long long>(trace.heap_high_water()));
  std::printf("reads: %llu traversal + %llu window = %llu total\n",
              static_cast<unsigned long long>(io.traversal_reads()),
              static_cast<unsigned long long>(io.window_query_reads()),
              static_cast<unsigned long long>(io.query_total()));
  for (size_t i = 0; i < kTraceCounterCount; ++i) {
    const TraceCounter counter = static_cast<TraceCounter>(i);
    if (trace.counter(counter) == 0) continue;
    std::printf("  %-22s %llu\n", TraceCounterName(counter),
                static_cast<unsigned long long>(trace.counter(counter)));
  }
}

int EmitTrace(const Args& args, const QueryTrace& trace, const IoCounter& io) {
  const std::string format = args.Get("format", "chrome");
  std::string rendered;
  if (format == "chrome") {
    rendered = ToChromeTraceJson(trace);
  } else if (format == "jsonl") {
    rendered = ToJsonl(trace);
  } else {
    return Fail("unknown --format " + format + " (expected chrome or jsonl)");
  }
  const std::string out = args.Get("out");
  if (out.empty()) {
    std::printf("%s", rendered.c_str());
    return 0;
  }
  std::ofstream file(out, std::ios::trunc);
  if (!file) return Fail("cannot open " + out + " for writing");
  file << rendered;
  if (!file.good()) return Fail("failed writing trace to " + out);
  file.close();
  std::printf("wrote %s trace (%zu bytes) to %s\n", format.c_str(), rendered.size(),
              out.c_str());
  PrintTraceSummary(trace, io);
  return 0;
}

int CmdTrace(const Args& args) {
  const Result<NwcOptions> options = ParseOptions(args);
  if (!options.ok()) return Fail(options.status().ToString());
  const Result<Point> q = ParsePoint(args.Get("q", ""));
  if (!q.ok()) return Fail(q.status().ToString());
  CountFlags counts(args);
  const NwcQuery base{*q, args.GetDouble("l", 8.0), args.GetDouble("w", 8.0), counts.Get("n", 8)};
  const KnwcQuery knwc_query{base, counts.Get("k", 4), counts.Get("m", 2)};
  if (!counts.status().ok()) return Fail(counts.status().ToString());
  Result<LoadedIndex> index = LoadIndexFor(args, *options);
  if (!index.ok()) return Fail(index.status().ToString());

  IoCounter io;
  QueryTrace trace = QueryTrace::Enabled();
  if (args.Has("k")) {
    KnwcEngine engine(index->tree, index->iwp.get(), index->grid.get());
    const Result<KnwcResult> result = engine.Execute(knwc_query, *options, &io, &trace);
    if (!result.ok()) return Fail(result.status().ToString());
    trace.set_label("knwc q=(" + args.Get("q") + ") scheme=" + args.Get("scheme", "star"));
  } else {
    NwcEngine engine(index->tree, index->iwp.get(), index->grid.get());
    const Result<NwcResult> result = engine.Execute(base, *options, &io, &trace);
    if (!result.ok()) return Fail(result.status().ToString());
    trace.set_label("nwc q=(" + args.Get("q") + ") scheme=" + args.Get("scheme", "star"));
  }
  return EmitTrace(args, trace, io);
}

/// Watches the process shutdown latch and cancels the backend's queued and
/// running work once a signal lands, so a blocking harvest loop unblocks
/// promptly with Cancelled responses. Joinable; Stop() ends the watch.
class DrainWatcher {
 public:
  explicit DrainWatcher(std::function<void()> cancel)
      : thread_([this, cancel = std::move(cancel)] {
          while (!stop_.load(std::memory_order_acquire)) {
            if (ShutdownSignal::Instance().requested()) {
              cancel();
              return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
        }) {}

  ~DrainWatcher() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// ServiceConfig flags shared by `serve-batch` and `serve`.
Result<ServiceConfig> ServiceConfigFromArgs(const Args& args, const NwcOptions& options) {
  CountFlags counts(args);
  ServiceConfig service_config;
  service_config.num_threads = counts.Get("threads", 4);
  service_config.queue_capacity = counts.Get("queue", 256);
  service_config.default_options = options;
  // Asking for a trace directory or a slow threshold implies tracing.
  service_config.trace_slow_queries = args.Has("trace-dir") || args.Has("slow-us");
  service_config.slow_trace_us = counts.Get("slow-us", 0);
  service_config.trace_ring_capacity = counts.Get("trace-ring", 32);
  service_config.default_deadline_micros = counts.Get("deadline-us", 0);
  service_config.shed_queue_depth = counts.Get("shed-watermark", 0);
  service_config.max_retries =
      static_cast<int>(counts.Get("retries", 0, std::numeric_limits<int>::max()));
  service_config.retry_backoff_micros = counts.Get("retry-backoff-us", 100);
  service_config.result_cache_bytes =
      counts.Get("cache-mb", 0, std::numeric_limits<size_t>::max() >> 20) << 20;
  if (!counts.status().ok()) return counts.status();
  if (args.Has("inject-faults")) {
    Result<FaultPlan> plan = ParseFaultPlan(args.Get("inject-faults"));
    if (!plan.ok()) return plan.status();
    service_config.fault_plan = *plan;
  }
  const Status valid = service_config.Validate();
  if (!valid.ok()) return valid;
  return service_config;
}

/// Sharding flags shared by `serve-batch` and `serve` (--shards > 1 puts a
/// ShardRouter over per-shard QueryServices; see service/shard_router.h).
/// --shard-max-l / --shard-max-w bound the windows routed queries may
/// carry (the halo basis — required with --shards > 1); --shard-halo is
/// the halo factor; --shard-partial picks the partial-failure policy;
/// --fault-shard scopes --inject-faults to one shard.
Result<ShardRouterConfig> ShardConfigFromArgs(const Args& args,
                                              const ServiceConfig& service_config,
                                              const SessionConfig& session_config) {
  CountFlags counts(args);
  ShardRouterConfig config;
  config.num_shards = counts.Get("shards", 1);
  config.max_window_length = args.GetDouble("shard-max-l", 0.0);
  config.max_window_width = args.GetDouble("shard-max-w", 0.0);
  config.halo_factor = args.GetDouble("shard-halo", 3.0);
  const std::string partial = args.Get("shard-partial", "fail");
  if (partial == "fail") {
    config.partial_failure = PartialFailurePolicy::kFail;
  } else if (partial == "degrade") {
    config.partial_failure = PartialFailurePolicy::kDegrade;
  } else {
    return Status::InvalidArgument("--shard-partial must be 'fail' or 'degrade'");
  }
  config.service = service_config;
  config.session = session_config;
  config.iwp_staleness_limit = counts.Get("iwp-staleness", 0);
  config.fault_plan = service_config.fault_plan;
  config.fault_shard = static_cast<int>(args.GetLong("fault-shard", -1));
  // Router dispatch parallelism defaults to the per-shard worker count:
  // NWC routing holds a router thread across its (mostly sequential)
  // shard visits, so fewer router threads than workers would idle the
  // shard services.
  config.router_threads = counts.Get("router-threads", service_config.num_threads);
  config.router_queue_capacity = counts.Get("router-queue", service_config.queue_capacity);
  if (!counts.status().ok()) return counts.status();
  const Status valid = config.Validate();
  if (!valid.ok()) return valid;
  return config;
}

/// What `serve-batch` and `serve` serve from: with --shards > 1 a
/// ShardRouter over the tree's objects, otherwise a QueryService over a
/// SnapshotStore opened on the tree. Either accepts updates; a store
/// builds its writer copy only on the first one.
struct Backend {
  std::unique_ptr<SnapshotStore> store;   ///< null behind a router
  std::unique_ptr<QueryService> service;  ///< null behind a router
  std::unique_ptr<ShardRouter> router;    ///< null unless --shards > 1

  QueryBackend& get() const {
    return router != nullptr ? static_cast<QueryBackend&>(*router) : *service;
  }
  void CancelAll() const {
    if (router != nullptr) {
      router->CancelAll();
    } else {
      service->CancelAll();
    }
  }
};

Result<Backend> OpenBackend(const Args& args, RStarTree tree, const SessionConfig& session_config,
                            const ServiceConfig& service_config) {
  CountFlags counts(args);
  const size_t num_shards = counts.Get("shards", 1);
  const size_t iwp_staleness = counts.Get("iwp-staleness", 0);
  if (!counts.status().ok()) return counts.status();
  Backend backend;
  if (num_shards > 1) {
    const Result<ShardRouterConfig> shard_config =
        ShardConfigFromArgs(args, service_config, session_config);
    if (!shard_config.ok()) return shard_config.status();
    Result<std::unique_ptr<ShardRouter>> router =
        ShardRouter::Open(CollectTreeObjects(tree), *shard_config);
    if (!router.ok()) return router.status();
    backend.router = std::move(*router);
    return backend;
  }
  SnapshotStore::Config store_config;
  store_config.session = session_config;
  store_config.iwp_staleness_limit = iwp_staleness;
  Result<std::unique_ptr<SnapshotStore>> store = SnapshotStore::Open(std::move(tree), store_config);
  if (!store.ok()) return store.status();
  backend.store = std::move(*store);
  backend.service = std::make_unique<QueryService>(*backend.store, service_config);
  return backend;
}

int CmdServeBatch(const Args& args) {
  const Result<NwcOptions> options = ParseOptions(args);
  if (!options.ok()) return Fail(options.status().ToString());
  const std::string index_path = args.Get("index");
  if (index_path.empty()) return Fail("--index is required");
  const std::string queries_path = args.Get("queries");
  if (queries_path.empty()) return Fail("--queries is required");

  Result<std::vector<WorkloadEntry>> entries = LoadWorkloadFile(queries_path);
  if (!entries.ok()) return Fail(entries.status().ToString());
  Result<RStarTree> tree = LoadTree(index_path);
  if (!tree.ok()) return Fail(tree.status().ToString());

  SessionConfig session_config;
  session_config.build_iwp = options->use_iwp;
  session_config.build_grid = options->use_dep;
  session_config.grid_cell_size = args.GetDouble("grid-cell", 25.0);

  // Mutation batches publish new epochs between query submissions.
  CountFlags counts(args);
  const size_t mutate_every_flag = counts.Get("mutate-every", 1);
  if (!counts.status().ok()) return Fail(counts.status().ToString());
  const std::string mutations_path = args.Get("mutations");
  std::vector<MutationBatch> mutation_batches;
  if (!mutations_path.empty()) {
    Result<std::vector<MutationBatch>> batches = LoadMutationFile(mutations_path);
    if (!batches.ok()) return Fail(batches.status().ToString());
    mutation_batches = std::move(*batches);
  }

  Result<ServiceConfig> service_config = ServiceConfigFromArgs(args, *options);
  if (!service_config.ok()) return Fail(service_config.status().ToString());

  // SIGINT/SIGTERM drain: cancel in-flight work so the harvest below
  // finishes promptly (with Cancelled responses) and the metrics outputs
  // are still written — a signal must not lose the run's report.
  const Status installed = ShutdownSignal::Instance().Install();
  if (!installed.ok()) return Fail(installed.ToString());

  Result<Backend> opened =
      OpenBackend(args, std::move(tree).value(), session_config, *service_config);
  if (!opened.ok()) return Fail(opened.status().ToString());
  const Backend& served = *opened;
  QueryBackend& backend = served.get();
  DrainWatcher drain_watcher([&served] { served.CancelAll(); });
  if (served.router != nullptr) {
    std::printf("serving %zu queries from %s across %zu shard(s) x %zu worker(s), scheme %s\n",
                entries->size(), queries_path.c_str(), served.router->num_shards(),
                service_config->num_threads, args.Get("scheme", "star").c_str());
  } else {
    std::printf("serving %zu queries from %s across %zu worker(s), scheme %s\n",
                entries->size(), queries_path.c_str(), served.service->num_workers(),
                args.Get("scheme", "star").c_str());
  }

  // Submit everything in file order (blocking submit = natural
  // backpressure), then harvest the futures in the same order. Mutation
  // batches publish after every `mutate_every` submitted queries — by
  // default spaced so the stream outlives the batches.
  std::vector<std::future<NwcResponse>> nwc_futures;
  std::vector<std::future<KnwcResponse>> knwc_futures;
  UpdateResponse last_update;
  Stopwatch wall;
  const size_t mutate_every =
      mutation_batches.empty()
          ? 0
          : std::max<size_t>(1, args.Has("mutate-every")
                                    ? mutate_every_flag
                                    : entries->size() / (mutation_batches.size() + 1));
  size_t next_batch = 0;
  size_t since_mutation = 0;
  for (const WorkloadEntry& entry : *entries) {
    if (mutate_every != 0 && since_mutation >= mutate_every &&
        next_batch < mutation_batches.size()) {
      // NotFound (delete misses) is tolerated: a replay against a
      // different seed tree may legitimately miss.
      const UpdateResponse update = backend.ApplyUpdate(mutation_batches[next_batch++]);
      if (!update.status.ok() && update.status.code() != StatusCode::kNotFound) {
        return Fail(update.status.ToString());
      }
      last_update = update;
      since_mutation = 0;
    }
    if (entry.is_knwc) {
      knwc_futures.push_back(backend.SubmitKnwc(KnwcRequest{entry.knwc, {}}));
    } else {
      nwc_futures.push_back(backend.SubmitNwc(NwcRequest{entry.nwc, {}}));
    }
    ++since_mutation;
  }
  // Leftover batches (short query file): apply them so the replay is
  // complete even if nothing queries the final epochs.
  while (next_batch < mutation_batches.size()) {
    const UpdateResponse update = backend.ApplyUpdate(mutation_batches[next_batch++]);
    if (!update.status.ok() && update.status.code() != StatusCode::kNotFound) {
      return Fail(update.status.ToString());
    }
    last_update = update;
  }

  const bool print_each = args.Has("print");
  size_t failures = 0;
  size_t next_nwc = 0;
  size_t next_knwc = 0;
  for (const WorkloadEntry& entry : *entries) {
    if (entry.is_knwc) {
      const KnwcResponse response = knwc_futures[next_knwc++].get();
      if (!response.status.ok()) ++failures;
      if (print_each) {
        if (!response.status.ok()) {
          std::printf("knwc: %s\n", response.status.ToString().c_str());
        } else {
          std::printf("knwc (%.1f, %.1f): %zu group(s), %llu us, %llu reads\n", entry.knwc.base.q.x,
                      entry.knwc.base.q.y, response.result.groups.size(),
                      static_cast<unsigned long long>(response.latency_micros),
                      static_cast<unsigned long long>(response.traversal_reads +
                                                      response.window_query_reads));
        }
      }
    } else {
      const NwcResponse response = nwc_futures[next_nwc++].get();
      if (!response.status.ok()) ++failures;
      if (print_each) {
        if (!response.status.ok()) {
          std::printf("nwc: %s\n", response.status.ToString().c_str());
        } else if (!response.result.found) {
          std::printf("nwc (%.1f, %.1f): no window, %llu us, %llu reads\n", entry.nwc.q.x,
                      entry.nwc.q.y, static_cast<unsigned long long>(response.latency_micros),
                      static_cast<unsigned long long>(response.traversal_reads +
                                                      response.window_query_reads));
        } else {
          std::printf("nwc (%.1f, %.1f): found distance %.3f, %llu us, %llu reads\n",
                      entry.nwc.q.x, entry.nwc.q.y, response.result.distance,
                      static_cast<unsigned long long>(response.latency_micros),
                      static_cast<unsigned long long>(response.traversal_reads +
                                                      response.window_query_reads));
        }
      }
    }
  }
  const double seconds = wall.ElapsedSeconds();

  const MetricsSnapshot snapshot = backend.SnapshotMetrics();
  std::printf("\n--- metrics report ---\n");
  std::printf("wall time:  %.3f s (%.1f queries/sec)\n", seconds,
              seconds > 0.0 ? static_cast<double>(snapshot.queries) / seconds : 0.0);
  if (mutation_batches.empty()) {
    // No update stream, nothing to report.
  } else if (served.store != nullptr) {
    std::printf("mutations:  %zu batch(es) applied, final epoch %llu, %zu object(s)\n",
                mutation_batches.size(), static_cast<unsigned long long>(served.store->epoch()),
                served.store->writer_object_count());
  } else {
    // The router has no single writer store; report the last update's
    // owner-shard view (max per-shard epoch, counts from the final batch).
    std::printf("mutations:  %zu batch(es) applied, final epoch %llu (last batch: %llu "
                "insert(s), %llu delete(s), %llu miss(es))\n",
                mutation_batches.size(), static_cast<unsigned long long>(last_update.epoch),
                static_cast<unsigned long long>(last_update.applied_inserts),
                static_cast<unsigned long long>(last_update.applied_deletes),
                static_cast<unsigned long long>(last_update.delete_misses));
  }
  std::printf("%s", snapshot.ToString().c_str());

  const std::string metrics_json = args.Get("metrics-json");
  if (!metrics_json.empty()) {
    std::ofstream file(metrics_json, std::ios::trunc);
    if (!file) return Fail("cannot open " + metrics_json + " for writing");
    file << snapshot.ToJson() << "\n";
    if (!file.good()) return Fail("failed writing " + metrics_json);
    std::printf("wrote metrics JSON to %s\n", metrics_json.c_str());
  }
  const std::string prom = args.Get("prom");
  if (!prom.empty()) {
    std::ofstream file(prom, std::ios::trunc);
    if (!file) return Fail("cannot open " + prom + " for writing");
    std::string text = ToPrometheusText(snapshot, backend.SnapshotLatencyHistogram());
    backend.AppendPrometheusText(&text);
    file << text;
    if (!file.good()) return Fail("failed writing " + prom);
    std::printf("wrote Prometheus metrics to %s\n", prom.c_str());
  }
  const std::string trace_dir = args.Get("trace-dir");
  if (!trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    if (ec) return Fail("cannot create " + trace_dir + ": " + ec.message());
    const auto traces = backend.SlowTraces();
    size_t written = 0;
    for (const auto& trace : traces) {
      char name[32];
      std::snprintf(name, sizeof(name), "slow_%03zu.json", written);
      const std::string path = (std::filesystem::path(trace_dir) / name).string();
      std::ofstream file(path, std::ios::trunc);
      if (!file) return Fail("cannot open " + path + " for writing");
      file << ToChromeTraceJson(*trace);
      if (!file.good()) return Fail("failed writing " + path);
      ++written;
    }
    std::printf("wrote %zu slow-query trace(s) (>= %llu us) to %s\n", written,
                static_cast<unsigned long long>(service_config->slow_trace_us),
                trace_dir.c_str());
  }
  if (ShutdownSignal::Instance().requested()) {
    std::printf("drained after signal: in-flight queries finished, outputs written\n");
    return 0;
  }
  return failures == 0 ? 0 : 1;
}

int CmdServe(const Args& args) {
  const Result<NwcOptions> options = ParseOptions(args);
  if (!options.ok()) return Fail(options.status().ToString());
  const std::string index_path = args.Get("index");
  if (index_path.empty()) return Fail("--index is required");
  CountFlags counts(args);
  NetServerConfig net_config;
  net_config.host = args.Get("host", "127.0.0.1");
  net_config.port = static_cast<uint16_t>(counts.Get("port", 0, 65535));
  net_config.max_frame_bytes = counts.Get("max-frame-bytes", 1 << 20);
  if (!counts.status().ok()) return Fail(counts.status().ToString());
  Result<RStarTree> tree = LoadTree(index_path);
  if (!tree.ok()) return Fail(tree.status().ToString());

  // Unlike serve-batch, remote clients may override the scheme per
  // request, so build every auxiliary structure unless told otherwise.
  SessionConfig session_config;
  session_config.build_iwp = !args.Has("no-iwp");
  session_config.build_grid = !args.Has("no-grid");
  session_config.grid_cell_size = args.GetDouble("grid-cell", 25.0);

  Result<ServiceConfig> service_config = ServiceConfigFromArgs(args, *options);
  if (!service_config.ok()) return Fail(service_config.status().ToString());

  const Status installed = ShutdownSignal::Instance().Install();
  if (!installed.ok()) return Fail(installed.ToString());

  Result<Backend> opened =
      OpenBackend(args, std::move(tree).value(), session_config, *service_config);
  if (!opened.ok()) return Fail(opened.status().ToString());
  const Backend& served = *opened;
  QueryBackend& backend = served.get();
  Result<std::unique_ptr<NetServer>> server = NetServer::Start(backend, net_config);
  if (!server.ok()) return Fail(server.status().ToString());

  if (served.router != nullptr) {
    std::printf("listening on %s:%u (%zu shard(s) x %zu worker(s), scheme %s)\n",
                net_config.host.c_str(), static_cast<unsigned>((*server)->port()),
                served.router->num_shards(), service_config->num_threads,
                args.Get("scheme", "star").c_str());
  } else {
    std::printf("listening on %s:%u (%zu worker(s), scheme %s)\n", net_config.host.c_str(),
                static_cast<unsigned>((*server)->port()), served.service->num_workers(),
                args.Get("scheme", "star").c_str());
  }
  std::fflush(stdout);

  ShutdownSignal::Instance().WaitUntilRequested();
  std::printf("signal received: draining\n");
  std::fflush(stdout);
  (*server)->RequestDrain();
  (*server)->Wait();

  const NetMetricsSnapshot net = (*server)->SnapshotNetMetrics();
  std::printf("drained: %llu frame(s) in, %llu response(s) out, %llu protocol error(s), "
              "%llu connection(s)\n",
              static_cast<unsigned long long>(net.frames_received),
              static_cast<unsigned long long>(net.frames_sent),
              static_cast<unsigned long long>(net.protocol_errors_total()),
              static_cast<unsigned long long>(net.connections_accepted));
  const MetricsSnapshot snapshot = backend.SnapshotMetrics();
  std::printf("%s", snapshot.ToString().c_str());

  const std::string metrics_json = args.Get("metrics-json");
  if (!metrics_json.empty()) {
    std::ofstream file(metrics_json, std::ios::trunc);
    if (!file) return Fail("cannot open " + metrics_json + " for writing");
    file << snapshot.ToJson() << "\n";
    if (!file.good()) return Fail("failed writing " + metrics_json);
  }
  const std::string prom = args.Get("prom");
  if (!prom.empty()) {
    std::ofstream file(prom, std::ios::trunc);
    if (!file) return Fail("cannot open " + prom + " for writing");
    std::string text = ToPrometheusText(snapshot, backend.SnapshotLatencyHistogram());
    backend.AppendPrometheusText(&text);
    file << text;
    if (!file.good()) return Fail("failed writing " + prom);
  }
  return 0;
}

int CmdStats(const Args& args) {
  const std::string index_path = args.Get("index");
  if (index_path.empty()) return Fail("--index is required");
  Result<RStarTree> tree = LoadTree(index_path);
  if (!tree.ok()) return Fail(tree.status().ToString());
  const Status valid = ValidateTree(*tree);
  std::printf("objects:  %zu\n", tree->size());
  std::printf("nodes:    %zu (%zu bytes as pages)\n", tree->node_count(),
              tree->StorageBytes());
  std::printf("height:   %d\n", tree->height());
  std::printf("fanout:   max %d / min %d\n", tree->options().max_entries,
              tree->options().min_entries);
  std::printf("split:    %s\n", SplitAlgorithmName(tree->options().split_algorithm));
  std::printf("valid:    %s\n", valid.ok() ? "yes" : valid.ToString().c_str());
  const Rect bounds = tree->bounds();
  std::printf("bounds:   [%.1f, %.1f] x [%.1f, %.1f]\n", bounds.min_x, bounds.max_x,
              bounds.min_y, bounds.max_y);
  std::printf("%s", ComputeTreeStats(*tree).ToString().c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: nwc_tool <generate|build|query|knwc|trace|stats|serve-batch|serve>"
               " [--key=value ...]\n"
               "see the header of tools/nwc_tool.cc for the full reference\n");
  return 2;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  if (command == "generate") return CmdGenerate(args);
  if (command == "build") return CmdBuild(args);
  if (command == "query") return CmdQuery(args);
  if (command == "knwc") return CmdKnwc(args);
  if (command == "trace") return CmdTrace(args);
  if (command == "stats") return CmdStats(args);
  if (command == "serve-batch") return CmdServeBatch(args);
  if (command == "serve") return CmdServe(args);
  return Usage();
}

}  // namespace
}  // namespace nwc

int main(int argc, char** argv) { return nwc::Run(argc, argv); }
