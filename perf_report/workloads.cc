#include "workloads.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "bench_util/experiment.h"
#include "core/distance_measures.h"
#include "core/knwc_engine.h"
#include "core/nwc_engine.h"
#include "net/client.h"
#include "perf/inputs.h"
#include "perf/stats.h"
#include "rtree/bulk_load.h"
#include "service/query_service.h"
#include "service/snapshot.h"

namespace nwc::perf {
namespace {

constexpr size_t kResultCacheBytes = size_t{64} << 20;
constexpr double kRoutedWindowBound = 64.0;
// Open-loop responses still missing this long after sending stops count
// as failed.
constexpr uint64_t kDrainNs = 5'000'000'000ull;

bool SameNwc(const NwcResult& a, const NwcResult& b) {
  return a.found == b.found && (!a.found || (a.distance == b.distance && a.objects == b.objects));
}

bool SameKnwc(const KnwcResult& a, const KnwcResult& b) {
  if (a.groups.size() != b.groups.size()) return false;
  for (size_t g = 0; g < a.groups.size(); ++g) {
    if (a.groups[g].distance != b.groups[g].distance ||
        !(a.groups[g].objects == b.groups[g].objects)) {
      return false;
    }
  }
  return true;
}

// A routed group is honest when it has n members that fit one window and
// its claimed distance is what the measure gives.
bool HonestGroup(const NwcQuery& query, const std::vector<DataObject>& objects,
                 double distance) {
  return objects.size() == query.n && GroupFitsWindow(objects, query.length, query.width) &&
         GroupDistance(query.q, objects, query.length, query.width,
                       NwcOptions::Star().measure) == distance;
}

// Single-threaded NWC* answers on `session` — the oracle every workload
// compares with.
Result<NwcResult> EngineNwc(const Session& session, const NwcQuery& query) {
  return NwcEngine(session.tree(), session.iwp(), session.grid())
      .Execute(query, NwcOptions::Star(), nullptr);
}

Result<KnwcResult> EngineKnwc(const Session& session, const KnwcQuery& query) {
  return KnwcEngine(session.tree(), session.iwp(), session.grid())
      .Execute(query, NwcOptions::Star(), nullptr);
}

// True when `response` answers `entry` exactly as the engine does on
// `oracle`.
bool MatchesEngine(const Session& oracle, const WorkloadEntry& entry, const Status& status,
                   const NwcResult& nwc, const KnwcResult& knwc) {
  if (!status.ok()) return false;
  if (entry.is_knwc) {
    const Result<KnwcResult> want = EngineKnwc(oracle, entry.knwc);
    return want.ok() && SameKnwc(knwc, *want);
  }
  const Result<NwcResult> want = EngineNwc(oracle, entry.nwc);
  return want.ok() && SameNwc(nwc, *want);
}

size_t CountKeptMismatches(const Session& oracle, const std::vector<WorkloadEntry>& queries,
                           const std::vector<KeptResponse>& kept) {
  size_t mismatches = 0;
  for (const KeptResponse& k : kept) {
    const WorkloadEntry& entry = queries[k.index];
    const Status& status = entry.is_knwc ? k.knwc.status : k.nwc.status;
    if (!MatchesEngine(oracle, entry, status, k.nwc.result, k.knwc.result)) ++mismatches;
  }
  return mismatches;
}

// ---- Open-loop load over loopback ----------------------------------------
//
// net/load_gen.h's RunLoadGen drives exactly this discipline but reports
// only aggregate whole-microsecond quantiles over both query kinds; the
// benchmark needs each request's kind, due-time latency and ServerTiming,
// so it keeps its own per-request table around the same wire calls.

struct OpenLoop {
  double qps = 2000.0;
  size_t connections = 2;
  size_t depth = 16;
};

struct Connection {
  explicit Connection(NetClient connected) : client(std::move(connected)) {}

  NetClient client;  // connects; the loop then does nonblocking I/O on its fd
  FrameDecoder decoder{1u << 24};
  std::string out;
  size_t out_off = 0;
  size_t in_flight = 0;
  bool dead = false;
};

void Flush(Connection* conn) {
  while (!conn->dead && conn->out_off < conn->out.size()) {
    const ssize_t n = ::write(conn->client.fd(), conn->out.data() + conn->out_off,
                              conn->out.size() - conn->out_off);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      conn->dead = true;
    }
  }
  if (conn->out_off == conn->out.size()) {
    conn->out.clear();
    conn->out_off = 0;
  }
}

bool ResponseOk(MsgType type, std::string_view body) {
  if (type == MsgType::kNwcResponse) {
    NwcResponse response;
    return DecodeNwcResponse(body, &response).ok() && response.status.ok();
  }
  if (type == MsgType::kKnwcResponse) {
    KnwcResponse response;
    return DecodeKnwcResponse(body, &response).ok() && response.status.ok();
  }
  return false;
}

// Sends entries[i] at start + i / qps until `seconds` pass (or the entries
// run out), round-robin over pipelined connections, and times each from
// its due time. `spans` non-null marks the requests traced.
Pass RunOpenLoop(uint16_t port, const std::vector<WorkloadEntry>& entries, double seconds,
                 const OpenLoop& loop, SpanRecorder* spans) {
  std::vector<Connection> conns;
  for (size_t i = 0; i < loop.connections; ++i) {
    Result<NetClient> client = NetClient::Connect("127.0.0.1", port);
    CheckOk(client.status(), "open loop connect");
    const int fd = client->fd();
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    conns.emplace_back(std::move(client).value());
  }

  struct Request {
    uint64_t due_ns = 0;
    uint64_t sent_ns = 0;
    uint64_t done_ns = 0;
    uint32_t lane = 0;
    bool answered = false;
    bool ok = false;
    ServerTiming timing;
  };
  std::vector<Request> requests(entries.size());
  std::vector<uint32_t> free_lanes(loop.connections * loop.depth);
  std::iota(free_lanes.rbegin(), free_lanes.rend(), 0u);

  const uint8_t flags = spans != nullptr ? kEnvelopeFlagTrace : 0;
  const uint64_t start = NowNs();
  const uint64_t send_end = start + static_cast<uint64_t>(seconds * 1e9);
  const double interval_ns = 1e9 / loop.qps;
  size_t sent = 0;
  size_t answered = 0;
  size_t round_robin = 0;
  uint64_t last_done = start;
  std::vector<pollfd> pfds(conns.size());

  while (true) {
    const uint64_t now = NowNs();
    while (sent < entries.size()) {
      const uint64_t due = start + static_cast<uint64_t>(static_cast<double>(sent) * interval_ns);
      if (due > now || due >= send_end) break;
      Connection* target = nullptr;
      for (size_t i = 0; i < conns.size() && target == nullptr; ++i) {
        Connection* candidate = &conns[(round_robin + i) % conns.size()];
        if (!candidate->dead && candidate->in_flight < loop.depth) {
          target = candidate;
          round_robin = (round_robin + i + 1) % conns.size();
        }
      }
      if (target == nullptr) break;  // every pipeline is full; the wait counts as latency
      const WorkloadEntry& entry = entries[sent];
      target->out += entry.is_knwc
                         ? EncodeKnwcRequestFrame(sent, KnwcRequest{entry.knwc, {}, 0}, flags)
                         : EncodeNwcRequestFrame(sent, NwcRequest{entry.nwc, {}, 0}, flags);
      ++target->in_flight;
      Request& request = requests[sent];
      request.due_ns = due;
      request.sent_ns = NowNs();
      request.lane = free_lanes.back();
      free_lanes.pop_back();
      ++sent;
      Flush(target);
    }

    const bool sending = now < send_end && sent < entries.size();
    if (!sending && answered == sent) break;
    if (!sending && now > send_end + kDrainNs) break;
    bool any_alive = false;
    for (size_t i = 0; i < conns.size(); ++i) {
      pfds[i].fd = conns[i].dead ? -1 : conns[i].client.fd();
      pfds[i].events = static_cast<short>(POLLIN | (conns[i].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
      any_alive = any_alive || !conns[i].dead;
    }
    if (!any_alive) break;
    int timeout_ms = 10;
    if (sending) {
      const uint64_t next_due =
          start + static_cast<uint64_t>(static_cast<double>(sent) * interval_ns);
      timeout_ms = next_due > now ? static_cast<int>(std::min<uint64_t>(
                                        (next_due - now) / 1'000'000, 50))
                                  : 0;
    }
    ::poll(pfds.data(), pfds.size(), timeout_ms);

    for (size_t i = 0; i < conns.size(); ++i) {
      Connection& conn = conns[i];
      if (conn.dead) continue;
      if ((pfds[i].revents & POLLOUT) != 0) Flush(&conn);
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char buffer[64 * 1024];
      while (true) {
        const ssize_t n = ::read(conn.client.fd(), buffer, sizeof(buffer));
        if (n > 0) {
          conn.decoder.Append(buffer, static_cast<size_t>(n));
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) conn.dead = true;
          break;
        }
      }
      while (true) {
        bool has_frame = false;
        WireFrame frame;
        if (!conn.decoder.Poll(&has_frame, &frame).ok()) {
          conn.dead = true;
          break;
        }
        if (!has_frame) break;
        if (frame.request_id >= sent || requests[frame.request_id].answered) continue;
        Request& request = requests[frame.request_id];
        request.done_ns = NowNs();
        last_done = request.done_ns;
        request.answered = true;
        ++answered;
        --conn.in_flight;
        free_lanes.push_back(request.lane);
        std::string_view body = frame.body;
        const bool split_ok =
            !frame.traced() || SplitServerTiming(frame.body, &body, &request.timing).ok();
        request.ok = split_ok && ResponseOk(frame.type, body);
      }
    }
  }

  Pass pass;
  pass.seconds = static_cast<double>(last_done - start) / 1e9;
  for (size_t i = 0; i < sent; ++i) {
    const Request& request = requests[i];
    if (!request.answered || !request.ok) {
      ++pass.failed;
      continue;
    }
    ++pass.ok;
    (entries[i].is_knwc ? pass.knwc_ns : pass.nwc_ns).push_back(request.done_ns - request.due_ns);
    if (spans != nullptr) {
      const ServerTiming& t = request.timing;
      pass.queue_us.push_back(t.dequeue_us - std::min(t.dequeue_us, t.enqueue_us));
      pass.exec_us.push_back(t.execute_us - std::min(t.execute_us, t.dequeue_us));
      AddServedSpans(spans, request.sent_ns, request.done_ns, t, request.lane);
    }
  }
  return pass;
}

// ---- ca_batch: the engine under a small closed loop -----------------------

// The CA workloads' service: 2 workers, cached when `cache_bytes` > 0.
ServiceConfig TwoWorkers(size_t cache_bytes) {
  ServiceConfig config;
  config.num_threads = 2;
  config.result_cache_bytes = cache_bytes;
  return config;
}

// Uncached service, 2 workers, 4 requests outstanding; every 8th query
// kNWC. Net, cache, snapshot and router are bypassed, so engine changes
// move qps here while serving-layer changes should leave it flat.
class CaBatch : public Workload {
 public:
  explicit CaBatch(const RunOptions& options)
      : dataset_(CaDataset(options.quick ? 8000 : 62556)),
        queries_(MakeEntries(UniformPoints(dataset_.space, options.quick ? 1000 : 10000,
                                           StreamSeed(options.seed, Stream::kQueries)),
                             8)) {}

  void Setup() override {
    session_ = std::make_unique<Session>(OpenSingleTree(dataset_.objects, dataset_.space));
    service_ = std::make_unique<QueryService>(*session_, TwoWorkers(0));
  }

  void Teardown() override {
    service_.reset();
    session_.reset();
  }

  Pass Run(double seconds, SpanRecorder* spans) override {
    ClosedLoop loop;
    loop.traced = spans != nullptr;
    loop.keep_every = 20;
    return RunClosedLoop(*service_, queries_, &cursor_, seconds, loop, spans, &kept_);
  }

  // Every 20th query's response, bit-exact against a direct engine call.
  size_t Verify() override { return CountKeptMismatches(*session_, queries_, kept_); }

  LayerTargets Targets() override {
    LayerTargets targets;
    targets.dataset = &dataset_;
    targets.queries = &queries_;
    targets.session = session_.get();
    targets.backend = service_.get();
    return targets;
  }

 protected:
  Dataset dataset_;
  std::vector<WorkloadEntry> queries_;
  size_t cursor_ = 0;
  std::vector<KeptResponse> kept_;
  std::unique_ptr<Session> session_;
  std::unique_ptr<QueryService> service_;
};

// ---- ca_churn: the same reads beside a writer ------------------------------

// Applies one ChurnStream batch per `reads_per_update` completed reads, on
// its own thread, until stopped. Stop() (or destruction) joins it.
class ChurnWriter {
 public:
  ChurnWriter(QueryService& service, ChurnStream& stream, size_t reads_per_update,
              size_t batch_size)
      : service_(service),
        stream_(stream),
        reads_per_update_(reads_per_update),
        batch_size_(batch_size),
        next_update_at_(reads_per_update),
        thread_([this] { Loop(); }) {}

  ~ChurnWriter() { Stop(); }
  ChurnWriter(const ChurnWriter&) = delete;
  ChurnWriter& operator=(const ChurnWriter&) = delete;

  void OnRead() {
    std::lock_guard<std::mutex> lock(mu_);
    if (++reads_ >= next_update_at_) cv_.notify_one();
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  uint64_t failed() const { return failed_; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [this] { return stop_ || reads_ >= next_update_at_; });
      if (stop_) return;
      next_update_at_ += reads_per_update_;
      lock.unlock();
      const UpdateResponse response = service_.ApplyUpdate(stream_.Next(batch_size_));
      lock.lock();
      if (!response.status.ok()) ++failed_;
    }
  }

  QueryService& service_;
  ChurnStream& stream_;
  const size_t reads_per_update_;
  const size_t batch_size_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t reads_ = 0;
  uint64_t next_update_at_;
  bool stop_ = false;
  uint64_t failed_ = 0;
  std::thread thread_;  // last: starts after the state it reads exists
};

// ca_batch's query list against a SnapshotStore-backed service (IWP rebuilt
// on every publish) while a writer publishes a 32-mutation batch after
// every 25th completed read. Publish cost shows as lost qps against
// ca_batch, which runs the same list.
class CaChurn : public CaBatch {
 public:
  explicit CaChurn(const RunOptions& options)
      : CaBatch(options), churn_seed_(StreamSeed(options.seed, Stream::kChurn)),
        probe_count_(options.quick ? 20 : 200) {}

  void Setup() override {
    SnapshotStore::Config config;
    config.session.grid_space = dataset_.space;
    Result<std::unique_ptr<SnapshotStore>> store =
        SnapshotStore::Open(BulkLoadStr(dataset_.objects, RTreeOptions{}), config);
    CheckOk(store.status(), "ca_churn SnapshotStore::Open");
    store_ = std::move(store).value();
    service_ = std::make_unique<QueryService>(*store_, TwoWorkers(0));
    churn_ = std::make_unique<ChurnStream>(dataset_.objects, churn_seed_);
  }

  void Teardown() override {
    service_.reset();
    session_.reset();
    store_.reset();
    churn_.reset();
  }

  Pass Run(double seconds, SpanRecorder* spans) override {
    ChurnWriter writer(*service_, *churn_, /*reads_per_update=*/25, /*batch_size=*/32);
    ClosedLoop loop;
    loop.traced = spans != nullptr;
    loop.on_response = [&writer] { writer.OnRead(); };
    Pass pass = RunClosedLoop(*service_, queries_, &cursor_, seconds, loop, spans);
    writer.Stop();
    pass.failed += writer.failed();
    return pass;
  }

  // Probes on the final epoch against an index bulk-loaded from the
  // writer's own record of the live objects.
  size_t Verify() override {
    const Session oracle = OpenSingleTree(churn_->live(), dataset_.space);
    size_t mismatches = 0;
    for (size_t i = 0; i < probe_count_; ++i) {
      const WorkloadEntry& entry = queries_[i];
      if (entry.is_knwc) {
        const KnwcResponse got = service_->SubmitKnwc(KnwcRequest{entry.knwc, {}, 0}).get();
        if (!MatchesEngine(oracle, entry, got.status, {}, got.result)) ++mismatches;
      } else {
        const NwcResponse got = service_->SubmitNwc(NwcRequest{entry.nwc, {}, 0}).get();
        if (!MatchesEngine(oracle, entry, got.status, got.result, {})) ++mismatches;
      }
    }
    return mismatches;
  }

  // The probes run on the initial data (the snapshot twin replays the
  // writer's batches from there), so their single tree is built over it;
  // the net probe serves through the churned store.
  LayerTargets Targets() override {
    session_ = std::make_unique<Session>(OpenSingleTree(dataset_.objects, dataset_.space));
    return CaBatch::Targets();
  }

 private:
  const uint64_t churn_seed_;
  const size_t probe_count_;
  std::unique_ptr<SnapshotStore> store_;
  std::unique_ptr<ChurnStream> churn_;
};

// ---- ca_hot_served: net and cache under an open loop -----------------------

// The CA stack behind NetServer with a 64 MiB result cache, driven open
// loop at 2,000 q/s over 2 pipelined connections. 90% of requests repeat a
// 256-query hot pool (warmed before timing, so they are hits that do no
// tree I/O); 10% are fresh uniform queries that never repeat, so they
// always miss. Hits make the net and cache layers set the median; misses
// set the tail. A quarter of the requests are kNWC.
class CaHotServed : public Workload {
 public:
  explicit CaHotServed(const RunOptions& options)
      : quick_(options.quick),
        dataset_(CaDataset(options.quick ? 8000 : 62556)),
        traffic_(StreamSeed(options.seed, Stream::kTraffic)),
        cold_(dataset_.space, StreamSeed(options.seed, Stream::kCold)) {
    hot_pool_ = MakeEntries(UniformPoints(dataset_.space, options.quick ? 64 : 256,
                                          StreamSeed(options.seed, Stream::kHotPool)),
                            4);
    // Probes take the hot pool followed by cold queries.
    probe_queries_ = hot_pool_;
    for (size_t i = probe_queries_.size(); i < (options.quick ? 200u : 2000u); ++i) {
      probe_queries_.push_back(NextCold());
    }
  }

  void Setup() override {
    session_ = std::make_unique<Session>(OpenSingleTree(dataset_.objects, dataset_.space));
    service_ = std::make_unique<QueryService>(*session_, TwoWorkers(kResultCacheBytes));
    Result<std::unique_ptr<NetServer>> server = NetServer::Start(*service_, NetServerConfig());
    CheckOk(server.status(), "ca_hot_served NetServer::Start");
    server_ = std::move(server).value();
  }

  void Teardown() override {
    server_->RequestDrain();
    server_->Wait();
    server_.reset();
    service_.reset();
    session_.reset();
  }

  // Loads every hot query into the cache (checking each answer), then
  // runs the open loop untimed.
  void Warm(double seconds) override {
    hot_mismatches_ += CountServedMismatches(hot_pool_);
    Run(seconds, nullptr);
  }

  Pass Run(double seconds, SpanRecorder* spans) override {
    OpenLoop loop;
    loop.qps = quick_ ? 500.0 : 2000.0;
    std::vector<WorkloadEntry> entries(static_cast<size_t>(loop.qps * seconds) + 1);
    for (WorkloadEntry& entry : entries) {
      entry = traffic_.NextBernoulli(0.9) ? hot_pool_[traffic_.NextUint64(hot_pool_.size())]
                                          : NextCold();
    }
    return RunOpenLoop(server_->port(), entries, seconds, loop, spans);
  }

  // Every hot query (now cached) and fresh cold ones, over the wire,
  // bit-exact against the engine.
  size_t Verify() override {
    std::vector<WorkloadEntry> probes = hot_pool_;
    for (size_t i = 0; i < (quick_ ? 20u : 200u); ++i) probes.push_back(NextCold());
    return hot_mismatches_ + CountServedMismatches(probes);
  }

  LayerTargets Targets() override {
    const MetricsSnapshot metrics = service_->SnapshotMetrics();
    const uint64_t lookups = metrics.result_cache_hits + metrics.result_cache_misses;
    LayerTargets targets;
    targets.dataset = &dataset_;
    targets.queries = &probe_queries_;
    targets.session = session_.get();
    targets.backend = service_.get();
    targets.server = server_.get();
    targets.cache_hit_ratio =
        lookups > 0 ? static_cast<double>(metrics.result_cache_hits) / lookups : 0.0;
    return targets;
  }

 private:
  WorkloadEntry NextCold() { return MakeEntry(cold_.Next(), traffic_.NextBernoulli(0.25)); }

  size_t CountServedMismatches(const std::vector<WorkloadEntry>& entries) {
    Result<NetClient> client = NetClient::Connect("127.0.0.1", server_->port());
    CheckOk(client.status(), "ca_hot_served oracle connect");
    size_t mismatches = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      const WorkloadEntry& entry = entries[i];
      const Status sent = entry.is_knwc ? client->SendKnwc(i, KnwcRequest{entry.knwc, {}, 0})
                                        : client->SendNwc(i, NwcRequest{entry.nwc, {}, 0});
      NetReply reply;
      const bool ok = sent.ok() && client->Receive(&reply).ok() && reply.request_id == i &&
                      MatchesEngine(*session_, entry,
                                    entry.is_knwc ? reply.knwc.status : reply.nwc.status,
                                    reply.nwc.result, reply.knwc.result);
      if (!ok) ++mismatches;
    }
    return mismatches;
  }

  const bool quick_;
  Dataset dataset_;
  Rng traffic_;
  PointStream cold_;
  std::vector<WorkloadEntry> hot_pool_;
  std::vector<WorkloadEntry> probe_queries_;
  size_t hot_mismatches_ = 0;
  std::unique_ptr<Session> session_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<NetServer> server_;
};

// ---- ny_sharded: the router over highly clustered data ---------------------

// NY-like data behind a 4-shard router, closed loop with 8 outstanding over
// near-data points, every 4th kNWC. A single-tree NY query costs ~150 us,
// so the router's fan-out, MINDIST chain and kNWC scatter-merge are a large
// share of each request; ShardRouter::Open also dominates set-up.
class NySharded : public Workload {
 public:
  explicit NySharded(const RunOptions& options)
      : dataset_(NyDataset(options.quick ? 20000 : 255259)),
        queries_(MakeEntries(SampleQueryPointsNearData(dataset_, options.quick ? 2000 : 40000,
                                                       StreamSeed(options.seed, Stream::kQueries),
                                                       100.0),
                             4)),
        oracle_(OpenSingleTree(dataset_.objects, dataset_.space)) {}

  void Setup() override {
    Result<std::unique_ptr<ShardRouter>> router =
        ShardRouter::Open(dataset_.objects, RouterConfig());
    CheckOk(router.status(), "ny_sharded ShardRouter::Open");
    router_ = std::move(router).value();
  }

  void Teardown() override { router_.reset(); }

  Pass Run(double seconds, SpanRecorder* spans) override {
    ClosedLoop loop;
    loop.outstanding = 8;
    loop.traced = spans != nullptr;
    loop.exec_span = "shard_router.route";
    loop.keep_every = 20;
    return RunClosedLoop(*router_, queries_, &cursor_, seconds, loop, spans, &kept_);
  }

  // Every 20th response against the single tree: distances exact, members
  // exact up to the documented equally-optimal carve-outs.
  size_t Verify() override {
    size_t mismatches = 0;
    for (const KeptResponse& k : kept_) {
      const WorkloadEntry& entry = queries_[k.index];
      RoutedMatch match = RoutedMatch::kMismatch;
      if (entry.is_knwc) {
        const Result<KnwcResult> want = EngineKnwc(oracle_, entry.knwc);
        if (want.ok() && k.knwc.status.ok()) {
          match = CompareRouted(entry.knwc, k.knwc.result, *want);
        }
      } else {
        const Result<NwcResult> want = EngineNwc(oracle_, entry.nwc);
        if (want.ok() && k.nwc.status.ok()) {
          match = CompareRouted(entry.nwc, k.nwc.result, *want);
        }
      }
      if (match == RoutedMatch::kMismatch) ++mismatches;
    }
    return mismatches;
  }

  LayerTargets Targets() override {
    LayerTargets targets;
    targets.dataset = &dataset_;
    targets.queries = &queries_;
    targets.session = &oracle_;
    targets.backend = router_.get();
    targets.router = router_.get();
    return targets;
  }

 private:
  Dataset dataset_;
  std::vector<WorkloadEntry> queries_;
  Session oracle_;
  size_t cursor_ = 0;
  std::vector<KeptResponse> kept_;
  std::unique_ptr<ShardRouter> router_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const RunOptions& options) {
  if (name == "ca_batch") return std::make_unique<CaBatch>(options);
  if (name == "ca_hot_served") return std::make_unique<CaHotServed>(options);
  if (name == "ca_churn") return std::make_unique<CaChurn>(options);
  if (name == "ny_sharded") return std::make_unique<NySharded>(options);
  return nullptr;
}

Session OpenSingleTree(const std::vector<DataObject>& objects, const Rect& space) {
  SessionConfig config;
  config.grid_cell_size = kGridCell;
  config.grid_space = space;
  Result<Session> session = Session::Open(BulkLoadStr(objects, RTreeOptions{}), config);
  CheckOk(session.status(), "Session::Open");
  return std::move(session).value();
}

ShardRouterConfig RouterConfig() {
  ShardRouterConfig config;
  config.num_shards = 4;
  config.max_window_length = kRoutedWindowBound;
  config.max_window_width = kRoutedWindowBound;
  config.service.num_threads = 1;
  config.router_threads = 4;
  return config;
}

Pass RunClosedLoop(QueryBackend& backend, const std::vector<WorkloadEntry>& queries,
                   size_t* cursor, double seconds, const ClosedLoop& loop, SpanRecorder* spans,
                   std::vector<KeptResponse>* kept) {
  struct Record {
    size_t index = 0;
    uint32_t lane = 0;
    uint64_t submit_ns = 0;
    uint64_t done_ns = 0;
    bool ok = false;
    AsyncTiming timing;
    std::unique_ptr<KeptResponse> kept;
  };
  // A deque never moves its elements, so callbacks may write into their
  // record while the submitting thread appends more.
  std::deque<Record> records;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<uint32_t> free_lanes(loop.outstanding);
  std::iota(free_lanes.rbegin(), free_lanes.rend(), 0u);

  const uint64_t start = NowNs();
  const uint64_t stop = start + static_cast<uint64_t>(seconds * 1e9);
  while (NowNs() < stop) {
    uint32_t lane = 0;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !free_lanes.empty(); });
      lane = free_lanes.back();
      free_lanes.pop_back();
    }
    Record* record = &records.emplace_back();
    record->index = *cursor;
    record->lane = lane;
    *cursor = (*cursor + 1) % queries.size();
    const WorkloadEntry& entry = queries[record->index];
    if (kept != nullptr && loop.keep_every > 0 && record->index % loop.keep_every == 0) {
      record->kept = std::make_unique<KeptResponse>();
      record->kept->index = record->index;
    }
    const auto complete = [&mu, &cv, &free_lanes, &loop, record](bool ok) {
      record->done_ns = NowNs();
      record->ok = ok;
      if (loop.on_response) loop.on_response();
      std::lock_guard<std::mutex> lock(mu);
      free_lanes.push_back(record->lane);
      cv.notify_one();
    };
    record->submit_ns = NowNs();
    if (entry.is_knwc) {
      const auto done = [record, complete](KnwcResponse response) {
        const bool ok = response.status.ok();
        if (record->kept != nullptr) record->kept->knwc = std::move(response);
        complete(ok);
      };
      KnwcRequest request{entry.knwc, {}, 0};
      if (loop.traced) {
        backend.SubmitKnwcAsyncTraced(std::move(request),
                                      [record, done](KnwcResponse r, const AsyncTiming& t) {
                                        record->timing = t;
                                        done(std::move(r));
                                      });
      } else {
        backend.SubmitKnwcAsync(std::move(request), done);
      }
    } else {
      const auto done = [record, complete](NwcResponse response) {
        const bool ok = response.status.ok();
        if (record->kept != nullptr) record->kept->nwc = std::move(response);
        complete(ok);
      };
      NwcRequest request{entry.nwc, {}, 0};
      if (loop.traced) {
        backend.SubmitNwcAsyncTraced(std::move(request),
                                     [record, done](NwcResponse r, const AsyncTiming& t) {
                                       record->timing = t;
                                       done(std::move(r));
                                     });
      } else {
        backend.SubmitNwcAsync(std::move(request), done);
      }
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return free_lanes.size() == loop.outstanding; });
  }

  Pass pass;
  uint64_t last_done = start;
  for (Record& record : records) {
    last_done = std::max(last_done, record.done_ns);
    if (!record.ok) {
      ++pass.failed;
      continue;
    }
    ++pass.ok;
    const bool knwc = queries[record.index].is_knwc;
    (knwc ? pass.knwc_ns : pass.nwc_ns).push_back(record.done_ns - record.submit_ns);
    if (record.kept != nullptr) kept->push_back(std::move(*record.kept));
    if (!loop.traced) continue;
    const AsyncTiming& t = record.timing;
    pass.queue_us.push_back(t.dequeue_us - std::min(t.dequeue_us, t.enqueue_us));
    pass.exec_us.push_back(t.finish_us - std::min(t.finish_us, t.dequeue_us));
    if (spans == nullptr) continue;
    // Stamps are whole microseconds: clamp them into the request span.
    const auto clamp = [&](uint64_t us) {
      return std::clamp<uint64_t>(us * 1000, record.submit_ns, record.done_ns);
    };
    const uint64_t request = spans->NewRequest();
    const uint32_t root =
        spans->Add("request", record.submit_ns, record.done_ns, kNoParent, request, record.lane);
    spans->Add("service.queue", clamp(t.enqueue_us), clamp(t.dequeue_us), root, request,
               record.lane);
    spans->Add(loop.exec_span, clamp(t.dequeue_us), clamp(t.finish_us), root, request,
               record.lane);
  }
  pass.seconds = static_cast<double>(last_done - start) / 1e9;
  return pass;
}

void AddServedSpans(SpanRecorder* spans, uint64_t sent_ns, uint64_t done_ns,
                    const ServerTiming& timing, uint32_t lane) {
  const uint64_t request = spans->NewRequest();
  const uint64_t wall = done_ns - sent_ns;
  const uint64_t server_ns = std::min<uint64_t>(timing.flush_us * 1000, wall);
  const uint64_t receive = sent_ns + (wall - server_ns) / 2;
  const auto at = [&](uint64_t offset_us) {
    return receive + std::min<uint64_t>(offset_us * 1000, server_ns);
  };
  const uint32_t root = spans->Add("request", sent_ns, done_ns, kNoParent, request, lane);
  spans->Add("net.wire", sent_ns, receive, root, request, lane);
  spans->Add("net.decode", receive, at(timing.decode_us), root, request, lane);
  spans->Add("service.queue", at(timing.enqueue_us), at(timing.dequeue_us), root, request, lane);
  spans->Add("service.execute", at(timing.dequeue_us), at(timing.execute_us), root, request,
             lane);
  spans->Add("net.encode", at(timing.execute_us), at(timing.encode_us), root, request, lane);
  spans->Add("net.flush_wait", at(timing.encode_us), at(timing.flush_us), root, request, lane);
  spans->Add("net.wire", receive + server_ns, done_ns, root, request, lane);
}

RoutedMatch CompareRouted(const NwcQuery& query, const NwcResult& routed,
                          const NwcResult& single) {
  if (routed.found != single.found || (single.found && routed.distance != single.distance)) {
    return RoutedMatch::kMismatch;
  }
  if (!single.found || routed.objects == single.objects) return RoutedMatch::kExact;
  return HonestGroup(query, routed.objects, routed.distance) ? RoutedMatch::kTied
                                                             : RoutedMatch::kMismatch;
}

RoutedMatch CompareRouted(const KnwcQuery& query, const KnwcResult& routed,
                          const KnwcResult& single) {
  const std::vector<NwcGroup>& got = routed.groups;
  const std::vector<NwcGroup>& want = single.groups;
  if (got.size() != want.size()) return RoutedMatch::kMismatch;
  // Exact up to the first divergence; group 0 may only diverge on a tie.
  size_t g = 0;
  while (g < got.size() && got[g].distance == want[g].distance &&
         got[g].objects == want[g].objects) {
    ++g;
  }
  if (g == got.size()) return RoutedMatch::kExact;
  if (g == 0 && got[0].distance != want[0].distance) return RoutedMatch::kMismatch;
  // From the divergence on, the routed groups must be honest, sorted, and
  // pairwise within the overlap budget.
  for (size_t i = g; i < got.size(); ++i) {
    if (!HonestGroup(query.base, got[i].objects, got[i].distance)) return RoutedMatch::kMismatch;
    if (i > 0 && got[i].distance < got[i - 1].distance) return RoutedMatch::kMismatch;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    for (size_t j = i + 1; j < got.size(); ++j) {
      size_t shared = 0;
      for (const DataObject& a : got[i].objects) {
        shared += static_cast<size_t>(
            std::count(got[j].objects.begin(), got[j].objects.end(), a));
      }
      if (shared > query.m) return RoutedMatch::kMismatch;
    }
  }
  return RoutedMatch::kTied;
}

}  // namespace nwc::perf
