// nwc_tool — command-line front end for the library.
//
// Every subcommand takes --key=value flags (bare --key for switches),
// declared once in its flag table below; the table's help lines are the
// per-flag reference, printed as the usage text. An unknown flag, a
// malformed or out-of-range value, or a missing required flag exits 1
// before any file is read or written.
//
//   generate     Write a synthetic dataset (uniform, gaussian, or the CA /
//                NY look-alikes of the paper's real datasets) as CSV.
//   build        Build an R*-tree (or an STR bulk-loaded one) over a CSV
//                dataset and save it.
//   query        Run one NWC query against a saved tree and print the
//                group plus its node reads.
//   knwc         Run one kNWC query and print the k groups.
//   trace        Run one NWC (or, with --k, kNWC) query with tracing on and
//                emit the trace as Chrome trace-event JSON (Perfetto,
//                chrome://tracing) or JSONL; with --out, print a summary of
//                spans, pruning counters and per-phase reads instead.
//   stats        Print index statistics and the tree's validation status.
//   serve-batch  Replay a query file ("nwc X Y L W N" / "knwc X Y L W N K M"
//                lines, '#' comments) through the concurrent QueryService —
//                or, with --shards > 1, a ShardRouter over Z-order range
//                shards — and print a metrics report. A mutation file
//                ("insert ID X Y" / "delete ID X Y", "---" closing a batch)
//                publishes a new MVCC epoch between query submissions.
//                SIGINT/SIGTERM cancels in-flight work and still writes
//                every requested output.
//   serve        Serve NWC/kNWC queries and update batches over TCP (the
//                frame protocol of src/net/wire.h, plus GET /metrics and
//                the admin endpoints on the same port) until SIGINT/SIGTERM,
//                then drain: stop accepting, finish in-flight queries,
//                flush every response, print the final metrics, exit 0.
//                The server has no access control: any client that can
//                connect can mutate the data. Drive it with nwc_load.
//
// query, knwc and trace open the tree like the servers do: the IWP index
// and the density grid their scheme needs are built from the tree itself.
//
// Example session:
//   nwc_tool generate --kind=ca --out=/tmp/ca.csv
//   nwc_tool build --data=/tmp/ca.csv --out=/tmp/ca.nwctree --str
//   nwc_tool query --index=/tmp/ca.nwctree --q=5000,5000 --l=64 --w=64 --n=8
//   nwc_tool trace --index=/tmp/ca.nwctree --q=5000,5000 --l=64 --w=64 --n=8
//       --out=/tmp/q.json

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
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
#include "flags.h"
#include "net/server.h"
#include "net/shutdown_signal.h"
#include "obs/prometheus.h"
#include "obs/query_trace.h"
#include "obs/trace_export.h"
#include "rtree/bulk_load.h"
#include "rtree/serialize.h"
#include "rtree/tree_stats.h"
#include "service/query_service.h"
#include "service/session.h"
#include "service/shard_router.h"
#include "service/workload.h"

namespace nwc {
namespace {

using enum FlagType;

static_assert(kMaxEntriesDefault == 50, "--max-entries' default below spells it out");

constexpr Flag kGenerateFlags[] = {
    {.name = "kind", .type = kEnum, .fallback = "uniform",
     .help = "distribution (ca / ny mimic the paper's real datasets)",
     .choices = "uniform|gaussian|ca|ny"},
    {"count", kCount, nullptr, "objects to write (default: the kind's size in the paper)"},
    {"seed", kCount, "1", "generator seed"},
    {.name = "out", .type = kText, .help = "CSV file to write", .required = true},
};

constexpr Flag kBuildFlags[] = {
    {.name = "data", .type = kText, .help = "CSV dataset to index", .required = true},
    {.name = "out", .type = kText, .help = "tree file to write", .required = true},
    {.name = "max-entries", .type = kCount, .fallback = "50",
     .help = "node fanout M (the minimum fanout is 40% of it)", .max = INT_MAX},
    {"str", kBool, nullptr, "bulk-load with STR instead of R* inserts"},
};

constexpr Flag kIndexFlags[] = {
    {.name = "index", .type = kText, .help = "tree file written by build", .required = true},
};

constexpr Flag kGridFlags[] = {
    {"grid-cell", kDouble, "25", "density-grid cell side (schemes using DEP)"},
};

constexpr Flag kQueryFlags[] = {
    {.name = "q", .type = kPoint, .help = "query point", .required = true},
    {"l", kDouble, "8", "window length (x extent)"},
    {"w", kDouble, "8", "window width (y extent)"},
    {"n", kCount, "8", "objects per group"},
};

constexpr Flag kKnwcFlags[] = {
    {"k", kCount, "4", "groups to return"},
    {"m", kCount, "2", "objects two groups may share"},
};

constexpr Flag kTraceFlags[] = {
    {"k", kCount, nullptr, "trace a kNWC query for K groups (default: trace NWC)"},
    {"m", kCount, "2", "objects two kNWC groups may share"},
    {.name = "format", .type = kEnum, .fallback = "chrome", .help = "trace rendering",
     .choices = "chrome|jsonl"},
    {"out", kText, nullptr, "write the trace here and print a summary (default: stdout)"},
};

// ServiceConfig, metrics outputs and the sessions' auxiliary structures,
// shared by serve-batch and serve.
constexpr Flag kServiceFlags[] = {
    {"threads", kCount, "4", "worker threads (per shard)"},
    {"queue", kCount, "256", "job queue slots (per shard)"},
    {"deadline-us", kCount, "0", "per-query deadline from submit; 0 = none"},
    {"shed-watermark", kCount, "0", "shed blocking submits past this queue depth; 0 = never"},
    {.name = "cache-mb", .type = kCount, .fallback = "0",
     .help = "result cache size in MiB; 0 = no cache", .max = SIZE_MAX >> 20},
    {"inject-faults", kText, nullptr,
     "page-read fault plan: every:N, once:K, bernoulli:P[:SEED] or spike:N:MICROS"},
    {"slow-us", kCount, "0", "trace queries at or over this latency (0 = all)"},
    {"trace-ring", kCount, "32", "slow-query traces retained"},
    {"metrics-json", kText, nullptr, "write the final metrics as JSON"},
    {"prom", kText, nullptr, "write the final metrics as Prometheus text"},
    {"shards", kCount, "1", "Z-order range shards behind a ShardRouter (1 = no router)"},
    {"shard-max-l", kDouble, "0", "largest routed window length (needed with --shards > 1)"},
    {"shard-max-w", kDouble, "0", "largest routed window width (needed with --shards > 1)"},
    {"shard-halo", kDouble, "3", "halo replication band, in maximum window extents"},
    {.name = "shard-partial", .type = kEnum, .fallback = "fail",
     .help = "answer when a shard fails: fail the query or degrade", .choices = "fail|degrade"},
    {.name = "fault-shard", .type = kCount,
     .help = "scope --inject-faults to this shard (default: every shard)", .max = INT_MAX},
    {"router-threads", kCount, nullptr, "router dispatch threads (default: --threads)"},
    {"router-queue", kCount, nullptr, "router queue slots (default: --queue)"},
};

constexpr Flag kServeBatchFlags[] = {
    {.name = "queries", .type = kText, .help = "query file to replay", .required = true},
    {"mutations", kText, nullptr, "mutation file replayed between the queries"},
    {"mutate-every", kCount, nullptr,
     "queries between mutation batches (default: spread the batches evenly)"},
    {"print", kBool, nullptr, "print every answer"},
    {"trace-dir", kText, nullptr,
     "trace slow queries; write each retained trace here as Chrome JSON"},
};

constexpr Flag kServeFlags[] = {
    {"host", kText, "127.0.0.1", "address to listen on"},
    {.name = "port", .type = kCount, .fallback = "0", .help = "TCP port; 0 picks one and prints it",
     .max = 65535},
    {"max-frame-bytes", kCount, "1048576", "largest accepted request frame"},
    {"no-iwp", kBool, nullptr, "skip the IWP index (requests needing it fail)"},
    {"no-grid", kBool, nullptr, "skip the density grid (requests needing it fail)"},
};

/// Opens the tree under --index with the IWP index and density grid that
/// `options` needs, built from the tree itself. The grid covers the
/// normalized space so queries outside the data bounds stay sound.
Result<Session> OpenSession(const Flags& flags, const NwcOptions& options) {
  Result<RStarTree> tree = LoadTree(flags.text("index"));
  if (!tree.ok()) return tree.status();
  return Session::Open(std::move(tree).value(), {.build_iwp = options.use_iwp,
                                                  .build_grid = options.use_dep,
                                                  .grid_cell_size = flags.number("grid-cell"),
                                                  .grid_space = NormalizedSpace()});
}

NwcQuery QueryFromFlags(const Flags& flags) {
  return NwcQuery{flags.point("q"), flags.number("l"), flags.number("w"), flags.count("n")};
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) return Status::IoError("cannot open " + path + " for writing");
  file << text;
  if (!file.good()) return Status::IoError("failed writing " + path);
  return Status::Ok();
}

int CmdGenerate(const Flags& flags) {
  struct Generator {
    size_t default_count;
    Dataset (*make)(size_t count, uint64_t seed);
  };
  // In --kind's choice order.
  static constexpr Generator kGenerators[] = {
      {100000, [](size_t n, uint64_t seed) { return MakeUniform(n, seed); }},
      {250000, [](size_t n, uint64_t seed) { return MakeGaussian(n, seed); }},
      {62556, [](size_t n, uint64_t seed) { return MakeCaLike(seed, n); }},
      {255259, [](size_t n, uint64_t seed) { return MakeNyLike(seed, n); }},
  };
  const Generator& generator = kGenerators[flags.choice("kind")];
  const size_t count = flags.has("count") ? flags.count("count") : generator.default_count;
  const std::string& out = flags.text("out");
  const Dataset dataset = generator.make(count, flags.count("seed"));
  const Status saved = SaveDatasetCsv(dataset, out);
  if (!saved.ok()) return Fail(saved.ToString());
  std::printf("wrote %zu objects (%s) to %s\n", dataset.size(), dataset.name.c_str(),
              out.c_str());
  return 0;
}

int CmdBuild(const Flags& flags) {
  RTreeOptions options;
  options.max_entries = static_cast<int>(flags.count("max-entries"));
  // 64-bit product: max_entries may be as large as INT_MAX.
  options.min_entries = static_cast<int>(int64_t{options.max_entries} * 2 / 5);
  const Status valid = options.Validate();
  if (!valid.ok()) return Fail(valid.ToString());
  Result<Dataset> dataset = LoadDatasetCsv(flags.text("data"), "cli");
  if (!dataset.ok()) return Fail(dataset.status().ToString());

  const bool str = flags.has("str");
  RStarTree tree(options);
  if (str) {
    tree = BulkLoadStr(dataset->objects, options);
  } else {
    for (const DataObject& obj : dataset->objects) tree.Insert(obj);
  }
  const std::string& out = flags.text("out");
  const Status saved = SaveTree(tree, out);
  if (!saved.ok()) return Fail(saved.ToString());
  std::printf("built %s tree: %zu objects, %zu nodes, height %d -> %s\n", str ? "STR" : "R*",
              tree.size(), tree.node_count(), tree.height(), out.c_str());
  return 0;
}

int CmdQuery(const Flags& flags) {
  const NwcOptions options = OptionsFromFlags(flags);
  const NwcQuery query = QueryFromFlags(flags);
  const Result<Session> session = OpenSession(flags, options);
  if (!session.ok()) return Fail(session.status().ToString());

  NwcEngine engine(session->tree(), session->iwp(), session->grid());
  IoCounter io;
  const Result<NwcResult> result = engine.Execute(query, options, &io);
  if (!result.ok()) return Fail(result.status().ToString());
  if (!result->found) {
    std::printf("no qualified window (no %g x %g window holds %zu objects)\n", query.length,
                query.width, query.n);
    return 0;
  }
  std::printf("distance %.3f (%s measure), %llu node reads\n", result->distance,
              DistanceMeasureName(options.measure),
              static_cast<unsigned long long>(io.query_total()));
  for (const DataObject& obj : result->objects) {
    std::printf("  %u (%.3f, %.3f)\n", obj.id, obj.pos.x, obj.pos.y);
  }
  return 0;
}

int CmdKnwc(const Flags& flags) {
  const NwcOptions options = OptionsFromFlags(flags);
  const KnwcQuery query{QueryFromFlags(flags), flags.count("k"), flags.count("m")};
  const Result<Session> session = OpenSession(flags, options);
  if (!session.ok()) return Fail(session.status().ToString());

  KnwcEngine engine(session->tree(), session->iwp(), session->grid());
  IoCounter io;
  const Result<KnwcResult> result = engine.Execute(query, options, &io);
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

int CmdTrace(const Flags& flags) {
  const NwcOptions options = OptionsFromFlags(flags);
  const NwcQuery query = QueryFromFlags(flags);
  const Result<Session> session = OpenSession(flags, options);
  if (!session.ok()) return Fail(session.status().ToString());

  IoCounter io;
  QueryTrace trace = QueryTrace::Enabled();
  const bool knwc = flags.has("k");
  const Status ran = knwc ? KnwcEngine(session->tree(), session->iwp(), session->grid())
                                .Execute({query, flags.count("k"), flags.count("m")}, options,
                                         &io, &trace)
                                .status()
                          : NwcEngine(session->tree(), session->iwp(), session->grid())
                                .Execute(query, options, &io, &trace)
                                .status();
  if (!ran.ok()) return Fail(ran.ToString());
  trace.set_label(std::string(knwc ? "knwc" : "nwc") + " q=(" + flags.text("q") +
                  ") scheme=" + flags.text("scheme"));

  const std::string& format = flags.text("format");
  const std::string rendered = format == "chrome" ? ToChromeTraceJson(trace) : ToJsonl(trace);
  if (!flags.has("out")) {
    std::printf("%s", rendered.c_str());
    return 0;
  }
  const std::string& out = flags.text("out");
  const Status written = WriteTextFile(out, rendered);
  if (!written.ok()) return Fail(written.ToString());
  std::printf("wrote %s trace (%zu bytes) to %s\n", format.c_str(), rendered.size(),
              out.c_str());
  PrintTraceSummary(trace, io);
  return 0;
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

Result<ServiceConfig> ServiceConfigFromFlags(const Flags& flags) {
  ServiceConfig config;
  config.num_threads = flags.count("threads");
  config.queue_capacity = flags.count("queue");
  config.default_options = OptionsFromFlags(flags);
  // Asking for a trace directory or a slow threshold implies tracing.
  config.trace_slow_queries = flags.has("trace-dir") || flags.has("slow-us");
  config.slow_trace_us = flags.count("slow-us");
  config.trace_ring_capacity = flags.count("trace-ring");
  config.default_deadline_micros = flags.count("deadline-us");
  config.shed_queue_depth = flags.count("shed-watermark");
  config.result_cache_bytes = flags.count("cache-mb") << 20;
  if (flags.has("inject-faults")) {
    Result<FaultPlan> plan = ParseFaultPlan(flags.text("inject-faults"));
    if (!plan.ok()) return plan.status();
    config.fault_plan = *plan;
  }
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
  std::string shape;  ///< "N shard(s) x W worker(s)" or "W worker(s)", for the banners

  QueryBackend& get() const {
    return router != nullptr ? static_cast<QueryBackend&>(*router) : *service;
  }
};

/// Opens the tree under --index behind the backend the flags describe,
/// with the sessions' IWP index and density grid as asked.
Result<Backend> OpenBackend(const Flags& flags, bool build_iwp, bool build_grid) {
  Result<ServiceConfig> service_config = ServiceConfigFromFlags(flags);
  if (!service_config.ok()) return service_config.status();
  Result<RStarTree> tree = LoadTree(flags.text("index"));
  if (!tree.ok()) return tree.status();
  const SessionConfig session_config{.build_iwp = build_iwp,
                                     .build_grid = build_grid,
                                     .grid_cell_size = flags.number("grid-cell")};
  Backend backend;
  if (flags.count("shards") > 1) {
    constexpr PartialFailurePolicy kPolicies[] = {PartialFailurePolicy::kFail,
                                                  PartialFailurePolicy::kDegrade};  // in order
    ShardRouterConfig config;
    config.num_shards = flags.count("shards");
    config.max_window_length = flags.number("shard-max-l");
    config.max_window_width = flags.number("shard-max-w");
    config.halo_factor = flags.number("shard-halo");
    config.partial_failure = kPolicies[flags.choice("shard-partial")];
    config.service = *service_config;
    config.session = session_config;
    config.fault_shard =
        flags.has("fault-shard") ? static_cast<int>(flags.count("fault-shard")) : -1;
    // Router dispatch parallelism defaults to the per-shard worker count:
    // NWC routing holds a router thread across its (mostly sequential)
    // shard visits, so fewer router threads than workers would idle the
    // shard services.
    config.router_threads =
        flags.has("router-threads") ? flags.count("router-threads") : service_config->num_threads;
    config.router_queue_capacity =
        flags.has("router-queue") ? flags.count("router-queue") : service_config->queue_capacity;
    Result<std::unique_ptr<ShardRouter>> router =
        ShardRouter::Open(CollectTreeObjects(*tree), config);
    if (!router.ok()) return router.status();
    backend.router = std::move(*router);
    backend.shape = StrFormat("%zu shard(s) x %zu worker(s)", backend.router->num_shards(),
                              service_config->num_threads);
    return backend;
  }
  Result<std::unique_ptr<SnapshotStore>> store =
      SnapshotStore::Open(std::move(tree).value(), {session_config});
  if (!store.ok()) return store.status();
  backend.store = std::move(*store);
  backend.service = std::make_unique<QueryService>(*backend.store, *service_config);
  backend.shape = StrFormat("%zu worker(s)", backend.service->num_workers());
  return backend;
}

/// Writes the final metrics to --metrics-json / --prom when asked.
Status WriteMetricsOutputs(const Flags& flags, const MetricsSnapshot& snapshot,
                           QueryBackend& backend) {
  if (flags.has("metrics-json")) {
    const Status written = WriteTextFile(flags.text("metrics-json"), snapshot.ToJson() + "\n");
    if (!written.ok()) return written;
    std::printf("wrote metrics JSON to %s\n", flags.text("metrics-json").c_str());
  }
  if (flags.has("prom")) {
    std::string text = ToPrometheusText(snapshot, backend.SnapshotLatencyHistogram());
    backend.AppendPrometheusText(&text);
    const Status written = WriteTextFile(flags.text("prom"), text);
    if (!written.ok()) return written;
    std::printf("wrote Prometheus metrics to %s\n", flags.text("prom").c_str());
  }
  return Status::Ok();
}

int CmdServeBatch(const Flags& flags) {
  const std::string& queries_path = flags.text("queries");
  Result<std::vector<WorkloadEntry>> entries = LoadWorkloadFile(queries_path);
  if (!entries.ok()) return Fail(entries.status().ToString());

  // Mutation batches publish new epochs between query submissions.
  std::vector<MutationBatch> mutation_batches;
  if (flags.has("mutations")) {
    Result<std::vector<MutationBatch>> batches = LoadMutationFile(flags.text("mutations"));
    if (!batches.ok()) return Fail(batches.status().ToString());
    mutation_batches = std::move(*batches);
  }

  // SIGINT/SIGTERM drain: cancel in-flight work so the harvest below
  // finishes promptly (with Cancelled responses) and the metrics outputs
  // are still written — a signal must not lose the run's report.
  const Status installed = ShutdownSignal::Instance().Install();
  if (!installed.ok()) return Fail(installed.ToString());

  const NwcOptions options = OptionsFromFlags(flags);
  Result<Backend> opened = OpenBackend(flags, options.use_iwp, options.use_dep);
  if (!opened.ok()) return Fail(opened.status().ToString());
  const Backend& served = *opened;
  QueryBackend& backend = served.get();
  DrainWatcher drain_watcher([&served] {
    served.router != nullptr ? served.router->CancelAll() : served.service->CancelAll();
  });
  std::printf("serving %zu queries from %s across %s, scheme %s\n", entries->size(),
              queries_path.c_str(), served.shape.c_str(), flags.text("scheme").c_str());

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
          : std::max<size_t>(1, flags.has("mutate-every")
                                    ? flags.count("mutate-every")
                                    : entries->size() / (mutation_batches.size() + 1));
  size_t next_batch = 0;
  // NotFound (delete misses) is tolerated: a replay against a different
  // seed tree may legitimately miss.
  const auto apply_next_batch = [&] {
    last_update = backend.ApplyUpdate(mutation_batches[next_batch++]);
    return last_update.status.code() == StatusCode::kNotFound ? Status::Ok() : last_update.status;
  };
  size_t since_mutation = 0;
  for (const WorkloadEntry& entry : *entries) {
    if (mutate_every != 0 && since_mutation >= mutate_every &&
        next_batch < mutation_batches.size()) {
      const Status applied = apply_next_batch();
      if (!applied.ok()) return Fail(applied.ToString());
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
    const Status applied = apply_next_batch();
    if (!applied.ok()) return Fail(applied.ToString());
  }

  // One --print line per answer; `what` describes a successful one.
  const bool print_each = flags.has("print");
  size_t failures = 0;
  const auto harvest = [&](const char* kind, const Point& q, const auto& response, auto what) {
    if (!response.status.ok()) ++failures;
    if (!print_each) return;
    if (!response.status.ok()) {
      std::printf("%s: %s\n", kind, response.status.ToString().c_str());
      return;
    }
    std::printf("%s (%.1f, %.1f): %s, %llu us, %llu reads\n", kind, q.x, q.y, what().c_str(),
                static_cast<unsigned long long>(response.latency_micros),
                static_cast<unsigned long long>(response.traversal_reads +
                                                response.window_query_reads));
  };
  size_t next_nwc = 0;
  size_t next_knwc = 0;
  for (const WorkloadEntry& entry : *entries) {
    if (entry.is_knwc) {
      const KnwcResponse response = knwc_futures[next_knwc++].get();
      harvest("knwc", entry.knwc.base.q, response,
              [&] { return StrFormat("%zu group(s)", response.result.groups.size()); });
    } else {
      const NwcResponse response = nwc_futures[next_nwc++].get();
      harvest("nwc", entry.nwc.q, response, [&] {
        return response.result.found ? StrFormat("found distance %.3f", response.result.distance)
                                     : std::string("no window");
      });
    }
  }
  const double seconds = wall.ElapsedSeconds();

  const MetricsSnapshot snapshot = backend.SnapshotMetrics();
  std::printf("\n--- metrics report ---\n");
  // Requests, not the backend's executions: a router counts one per shard
  // a request visits.
  std::printf("wall time:  %.3f s (%zu requests, %.1f requests/sec)\n", seconds,
              entries->size(),
              seconds > 0.0 ? static_cast<double>(entries->size()) / seconds : 0.0);
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

  const Status outputs = WriteMetricsOutputs(flags, snapshot, backend);
  if (!outputs.ok()) return Fail(outputs.ToString());
  if (flags.has("trace-dir")) {
    const std::string& trace_dir = flags.text("trace-dir");
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    if (ec) return Fail("cannot create " + trace_dir + ": " + ec.message());
    size_t written = 0;
    for (const auto& trace : backend.SlowTraces()) {
      const std::string path = StrFormat("%s/slow_%03zu.json", trace_dir.c_str(), written++);
      const Status saved = WriteTextFile(path, ToChromeTraceJson(*trace));
      if (!saved.ok()) return Fail(saved.ToString());
    }
    std::printf("wrote %zu slow-query trace(s) (>= %llu us) to %s\n", written,
                static_cast<unsigned long long>(flags.count("slow-us")),
                trace_dir.c_str());
  }
  if (ShutdownSignal::Instance().requested()) {
    std::printf("drained after signal: in-flight queries finished, outputs written\n");
    return 0;
  }
  return failures == 0 ? 0 : 1;
}

int CmdServe(const Flags& flags) {
  NetServerConfig net_config;
  net_config.host = flags.text("host");
  net_config.port = static_cast<uint16_t>(flags.count("port"));
  net_config.max_frame_bytes = flags.count("max-frame-bytes");
  const Status installed = ShutdownSignal::Instance().Install();
  if (!installed.ok()) return Fail(installed.ToString());

  // Unlike serve-batch, remote clients may override the scheme per
  // request, so build every auxiliary structure unless told otherwise.
  Result<Backend> opened = OpenBackend(flags, !flags.has("no-iwp"), !flags.has("no-grid"));
  if (!opened.ok()) return Fail(opened.status().ToString());
  const Backend& served = *opened;
  QueryBackend& backend = served.get();
  Result<std::unique_ptr<NetServer>> server = NetServer::Start(backend, net_config);
  if (!server.ok()) return Fail(server.status().ToString());

  std::printf("listening on %s:%u (%s, scheme %s)\n", net_config.host.c_str(),
              static_cast<unsigned>((*server)->port()), served.shape.c_str(),
              flags.text("scheme").c_str());
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
  const Status outputs = WriteMetricsOutputs(flags, snapshot, backend);
  if (!outputs.ok()) return Fail(outputs.ToString());
  return 0;
}

int CmdStats(const Flags& flags) {
  Result<RStarTree> tree = LoadTree(flags.text("index"));
  if (!tree.ok()) return Fail(tree.status().ToString());
  std::printf("objects:  %zu\n", tree->size());
  std::printf("nodes:    %zu (%zu bytes as pages)\n", tree->node_count(),
              tree->StorageBytes());
  std::printf("height:   %d\n", tree->height());
  std::printf("fanout:   max %d / min %d\n", tree->options().max_entries,
              tree->options().min_entries);
  const Rect bounds = tree->bounds();
  std::printf("bounds:   [%.1f, %.1f] x [%.1f, %.1f]\n", bounds.min_x, bounds.max_x,
              bounds.min_y, bounds.max_y);
  std::printf("%s", ComputeTreeStats(*tree).ToString().c_str());
  return 0;
}

std::vector<Subcommand> Subcommands() {
  return {
      {"generate", JoinFlags({kGenerateFlags}), CmdGenerate},
      {"build", JoinFlags({kBuildFlags}), CmdBuild},
      {"query", JoinFlags({kIndexFlags, kQueryFlags, kOptionFlags, kGridFlags}), CmdQuery},
      {"knwc", JoinFlags({kIndexFlags, kQueryFlags, kKnwcFlags, kOptionFlags, kGridFlags}),
       CmdKnwc},
      {"trace", JoinFlags({kIndexFlags, kQueryFlags, kTraceFlags, kOptionFlags, kGridFlags}),
       CmdTrace},
      {"stats", JoinFlags({kIndexFlags}), CmdStats},
      {"serve-batch",
       JoinFlags({kIndexFlags, kServeBatchFlags, kOptionFlags, kGridFlags, kServiceFlags}),
       CmdServeBatch},
      {"serve", JoinFlags({kIndexFlags, kServeFlags, kOptionFlags, kGridFlags, kServiceFlags}),
       CmdServe},
  };
}

}  // namespace
}  // namespace nwc

int main(int argc, char** argv) {
  return nwc::RunSubcommand("nwc_tool", nwc::Subcommands(), argc, argv);
}
