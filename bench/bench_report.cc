// Machine-readable planning-performance report. Times the hypergraph partitioner on
// clustered micro instances and the full planner across block sizes / masks / datasets,
// then emits BENCH_planning.json so successive PRs can track the planning-time
// trajectory without scraping table output.
//
// Usage:
//   bench_report [--smoke] [--json=PATH]
// --smoke shrinks every instance (and is what the `ctest -L bench_smoke` label runs);
// --json defaults to BENCH_planning.json in the current directory.
//
// Every section is one entry in Main's table: its smoke and full parameters and the
// function that measures one row per parameter point (service_scaling: one per
// connection count). A row is an ordered list of named fields, each printed with its
// key's fixed number format; the JSON writer and the stdout summary both walk it.
// Gates exit non-zero through Require, so `ctest -L bench_smoke` fails on a regression.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "../dcpbench/bench_stats.h"
#include "bench_common.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/plan_store.h"
#include "hypergraph/metrics.h"
#include "hypergraph/partitioner.h"
#include "service/fault_injection.h"
#include "service/plan_client.h"
#include "service/plan_server.h"
#include "service/replica_set.h"
#include "service/tenant_registry.h"
#include "service/transport.h"

namespace dcp {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MsSince(double start) { return (NowSeconds() - start) * 1e3; }

// Fails the report unless `ok`: prints the message and exits non-zero. Every gate and
// every setup step below fails this way.
[[gnu::format(printf, 2, 3)]] void Require(bool ok, const char* format, ...) {
  if (ok) {
    return;
  }
  std::fputs("bench_report: ", stderr);
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::exit(1);
}

// One output field. Numbers keep their full value, which gates read back, and print
// with the key's fixed number of decimals; `literal` is the JSON text of a string or
// boolean field and is empty for numbers.
struct Field {
  std::string key;
  double value = 0.0;
  int decimals = 0;
  std::string literal;

  std::string Json() const {
    if (!literal.empty()) {
      return literal;
    }
    char text[64];
    std::snprintf(text, sizeof(text), "%.*f", decimals, value);
    return text;
  }
};

// One report row: its fields in output order.
class Row {
 public:
  Row& Num(const std::string& key, double value, int decimals) {
    fields_.push_back({key, value, decimals, ""});
    return *this;
  }
  Row& Int(const std::string& key, int64_t value) {
    return Num(key, static_cast<double>(value), 0);
  }
  Row& Str(const std::string& key, const std::string& value) {
    fields_.push_back({key, 0.0, 0, "\"" + value + "\""});
    return *this;
  }
  Row& Bool(const std::string& key, bool value) {
    fields_.push_back({key, 0.0, 0, value ? "true" : "false"});
    return *this;
  }

  double operator[](const std::string& key) const {
    for (const Field& field : fields_) {
      if (field.key == key) {
        return field.value;
      }
    }
    Require(false, "row has no field %s", key.c_str());
    return 0.0;
  }

  std::string Json() const {
    std::string json = "{";
    for (const Field& field : fields_) {
      json += (json.size() > 1 ? ", \"" : "\"") + field.key + "\": " + field.Json();
    }
    return json + "}";
  }

 private:
  std::vector<Field> fields_;
};

// One row's inputs. Partitioner rows read count, k and per_group; every other section
// reads the workload fields and count.
struct Point {
  DatasetKind dataset = DatasetKind::kLongAlign;
  MaskKind mask = MaskKind::kCausal;
  int64_t block_size = 0;
  int count = 0;  // Repeats, batches or requests: each section says which.
  int64_t token_budget = 0;
  ClusterSpec cluster = ClusterSpec::EndToEndTestbed();
  int k = 0;
  int per_group = 0;
};

MicroBenchConfig MakeConfig(const Point& p, int num_batches) {
  MicroBenchConfig config;
  config.cluster = p.cluster;
  config.dataset = p.dataset;
  config.block_size = p.block_size;
  config.num_batches = num_batches;
  config.token_budget = p.token_budget;
  config.max_seq_len = p.token_budget;
  return config;
}

// The recurring batch shape a service or cache row replans (the point's first batch),
// and the tenant options it is planned with.
struct Workload {
  std::vector<int64_t> seqlens;
  MaskSpec spec;
  EngineOptions options;
};

Workload MakeWorkload(const Point& p) {
  const MicroBenchConfig config = MakeConfig(p, 1);
  EngineOptions options;
  options.planner = config.MakePlannerOptions();
  return {config.MakeBatches().front().seqlens, MaskSpec::ForKind(p.mask), options};
}

// The fields that name a row's workload; k is the total context-parallel devices the
// plan targets.
Row Identity(const Point& p) {
  Row row;
  row.Str("dataset", DatasetKindName(p.dataset))
      .Str("mask", MaskKindName(p.mask))
      .Int("block_size", p.block_size)
      .Int("k", p.cluster.num_devices());
  return row;
}

// Registers `tenants` and starts a PlanServer for them on an ephemeral loopback port.
std::unique_ptr<PlanServer> StartServer(const std::vector<TenantConfig>& tenants,
                                        PlanServerOptions options = {}) {
  auto registry = std::make_shared<TenantRegistry>();
  for (const TenantConfig& tenant : tenants) {
    Require(registry->Register(tenant).ok(), "cannot register tenant %s",
            tenant.name.c_str());
  }
  auto server = std::make_unique<PlanServer>(registry, std::move(options));
  const Status started = server->Start(ServiceAddress::Tcp("127.0.0.1", 0));
  Require(started.ok(), "cannot start loopback plan server: %s",
          started.ToString().c_str());
  return server;
}

std::unique_ptr<PlanClient> ConnectClient(
    const ServiceAddress& address, const std::string& tenant,
    int cache_capacity = PlanClientOptions{}.cache_capacity) {
  PlanClientOptions options;
  options.tenant = tenant;
  options.cache_capacity = cache_capacity;
  StatusOr<std::unique_ptr<PlanClient>> client = PlanClient::Connect(address, options);
  Require(client.ok(), "cannot connect plan client: %s",
          client.status().ToString().c_str());
  return std::move(client).value();
}

// Everything in a plan is deterministic except stats.planning_seconds (a wall-clock
// measurement of the producing run); zero it before bit-identity comparisons between
// independent planning runs.
std::string SerializeTimeless(const BatchPlan& plan) {
  BatchPlan copy = plan;
  copy.stats.planning_seconds = 0.0;
  return SerializePlanBinary(copy);
}

Hypergraph MakeClustered(int k, int per_group, uint64_t seed) {
  Rng rng(seed);
  Hypergraph hg;
  for (int v = 0; v < k * per_group; ++v) {
    hg.AddVertex(1.0 + rng.NextDouble(), 1.0 + rng.NextDouble());
  }
  for (int g = 0; g < k; ++g) {
    for (int e = 0; e < per_group * 2; ++e) {
      std::vector<VertexId> pins;
      const int size = 2 + static_cast<int>(rng.NextBounded(4));
      const bool cross = rng.NextDouble() < 0.15;
      for (int p = 0; p < size; ++p) {
        const int group = cross && p == 0 ? (g + 1) % k : g;
        pins.push_back(group * per_group + static_cast<int>(rng.NextBounded(
                                               static_cast<uint64_t>(per_group))));
      }
      std::sort(pins.begin(), pins.end());
      pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
      if (pins.size() >= 2) {
        hg.AddEdge(1.0 + rng.NextDouble() * 3.0, pins);
      }
    }
  }
  hg.Finalize();
  return hg;
}

// count: partitioner runs timed.
std::vector<Row> MeasurePartitioner(const Point& p) {
  Hypergraph hg = MakeClustered(p.k, p.per_group, 11);
  PartitionConfig config;
  config.k = p.k;
  config.eps = {0.25, 0.25};
  auto partitioner = MakeMultilevelPartitioner();
  RunningStats ms;
  PartitionResult result;
  for (int r = 0; r < p.count; ++r) {
    const double start = NowSeconds();
    result = partitioner->Run(hg, config);
    ms.Add(MsSince(start));
  }
  Row row;
  row.Int("k", p.k)
      .Int("per_group", p.per_group)
      .Int("vertices", hg.num_vertices())
      .Int("repeats", p.count)
      .Num("ms_mean", ms.mean(), 4)
      .Num("ms_min", ms.min(), 4)
      .Num("connectivity", result.connectivity_cost, 4)
      .Bool("balanced", result.balanced);
  return {row};
}

// count: batches planned, uncached, through PlanBatch.
std::vector<Row> MeasurePlanning(const Point& p) {
  const MicroBenchConfig config = MakeConfig(p, p.count);
  const PlannerOptions options = config.MakePlannerOptions();
  RunningStats planning_ms;
  for (const Batch& batch : config.MakeBatches()) {
    std::vector<SequenceMask> masks =
        BuildBatchMasks(MaskSpec::ForKind(p.mask), batch.seqlens);
    BatchPlan plan = PlanBatch(batch.seqlens, masks, config.cluster, options);
    planning_ms.Add(plan.stats.planning_seconds * 1e3);
  }
  Row row = Identity(p);
  row.Int("batches", p.count)
      .Num("planning_ms_mean", planning_ms.mean(), 4)
      .Num("planning_ms_max", planning_ms.max(), 4);
  return {row};
}

// Production traffic replans recurring batch shapes; this row measures the Engine's
// compiled-plan cache on exactly that workload: one cold plan of a batch, then the same
// batch re-planned `count` times through the cache. Reports the cold first sighting
// (full planning pipeline), the cache-hit path (signature hash + LRU lookup), the hit
// rate from Engine::cache_stats over the whole run, and cold_ms / hit_ms_mean.
std::vector<Row> MeasureRepeatBatch(const Point& p) {
  const Workload w = MakeWorkload(p);
  Engine engine(p.cluster, w.options);

  double start = NowSeconds();
  const PlanHandle cold = engine.Plan(w.seqlens, w.spec).value();
  const double cold_ms = MsSince(start);

  RunningStats hit_ms;
  for (int r = 0; r < p.count; ++r) {
    start = NowSeconds();
    const PlanHandle hit = engine.Plan(w.seqlens, w.spec).value();
    hit_ms.Add(MsSince(start));
    Require(hit.get() == cold.get(), "repeat plan was not a cache hit");
  }
  Row row = Identity(p);
  row.Int("repeats", p.count)
      .Num("cold_ms", cold_ms, 4)
      .Num("hit_ms_mean", hit_ms.mean(), 6)
      .Num("hit_ms_max", hit_ms.max(), 6)
      .Num("hit_rate", engine.cache_stats().HitRate(), 4)
      .Num("speedup", hit_ms.mean() > 0.0 ? cold_ms / hit_ms.mean() : 0.0, 1);
  return {row};
}

// The instrumentation tax on the hottest path in the system: the same cache-hit loop
// as repeat_batch, timed once with latency recording disabled and once enabled
// (counters/gauges are always on — the toggle gates only the clock reads and histogram
// records, which is exactly what `metrics::SetRecordingEnabled` controls in prod).
// Gate: the enabled hit path must stay within 10% of the disabled one. Both sides use
// the min over interleaved rounds — scheduler noise inflates means and maxes, and a
// real regression (an added lock, a syscall-backed clock) moves the min too.
// count: hit measurements per side.
std::vector<Row> MeasureMetricsOverhead(const Point& p) {
  const Workload w = MakeWorkload(p);
  Engine engine(p.cluster, w.options);
  (void)engine.Plan(w.seqlens, w.spec).value();  // Populate the cache.

  // Interleave disabled/enabled rounds so frequency scaling or a background spike
  // hits both sides, then compare mins.
  double disabled_min = 1e30;
  double enabled_min = 1e30;
  constexpr int kRounds = 4;
  const int per_round = p.count / kRounds > 0 ? p.count / kRounds : 1;
  for (int round = 0; round < kRounds; ++round) {
    for (const bool enabled : {false, true}) {
      metrics::SetRecordingEnabled(enabled);
      double& side_min = enabled ? enabled_min : disabled_min;
      for (int r = 0; r < per_round; ++r) {
        const double start = NowSeconds();
        const PlanHandle hit = engine.Plan(w.seqlens, w.spec).value();
        side_min = std::min(side_min, MsSince(start));
        (void)hit;
      }
    }
  }
  metrics::SetRecordingEnabled(true);

  // 2us of absolute slack: at sub-20us hit latencies, 10% is within timer jitter even
  // for the min-of-many, and a genuine regression (a lock or syscall on the hit path)
  // costs far more than 2us.
  Require(enabled_min <= disabled_min * 1.10 + 0.002,
          "metrics-enabled hit path %.4f ms exceeds 1.10x the disabled path %.4f ms "
          "(+2us slack)",
          enabled_min, disabled_min);
  Row row = Identity(p);
  row.Int("repeats", p.count)
      .Num("disabled_hit_ms_min", disabled_min, 6)
      .Num("enabled_hit_ms_min", enabled_min, 6)
      .Num("overhead_ratio", disabled_min > 0.0 ? enabled_min / disabled_min : 0.0, 4);
  return {row};
}

// Measures cross-process warm start: one process plans cold and writes through to the
// plan store; a fresh Engine (fresh cache, same store path — a process restart in
// miniature) must then serve the same signature from disk, bit-identical, >= 10x faster
// than cold planning. Violations exit non-zero so `ctest -L bench_smoke` fails CI on
// store-hit latency or correctness regressions. count: fresh-Engine restarts measured;
// each store hit is the first Plan() on a fresh Engine over the store.
std::vector<Row> MeasureWarmStart(const Point& p, const std::string& store_dir) {
  // Start from an empty store so cold_ms really is cold across repeated bench runs.
  std::filesystem::remove_all(store_dir);
  Workload w = MakeWorkload(p);
  w.options.plan_store_path = store_dir;

  PlanHandle cold;
  double cold_ms = 0.0;
  {
    Engine writer(p.cluster, w.options);
    const double start = NowSeconds();
    cold = writer.Plan(w.seqlens, w.spec).value();
    cold_ms = MsSince(start);
    Require(writer.cache_stats().store_writes >= 1,
            "cold plan was not written to the store");
  }

  RunningStats hit_ms;
  for (int r = 0; r < p.count; ++r) {
    Engine fresh(p.cluster, w.options);  // Construction excluded from the hit path.
    const double start = NowSeconds();
    const PlanHandle warm = fresh.Plan(w.seqlens, w.spec).value();
    hit_ms.Add(MsSince(start));
    Require(fresh.cache_stats().store_hits == 1,
            "warm start was not served from the store");
    Require(warm->plan == cold->plan, "store-served plan differs from the cold plan");
  }
  // Gate on the min hit latency: scheduler noise on a loaded CI box inflates the mean,
  // but a genuine decode/IO regression moves the floor.
  const double floor_speedup = hit_ms.min() > 0.0 ? cold_ms / hit_ms.min() : 0.0;
  Require(floor_speedup >= 10.0,
          "warm-start speedup %.1fx is under the 10x regression bar (cold %.2f ms, "
          "best store hit %.4f ms)",
          floor_speedup, cold_ms, hit_ms.min());
  Row row = Identity(p);
  row.Int("repeats", p.count)
      .Num("cold_ms", cold_ms, 4)
      .Num("store_hit_ms_mean", hit_ms.mean(), 6)
      .Num("store_hit_ms_min", hit_ms.min(), 6)
      .Num("speedup", hit_ms.mean() > 0.0 ? cold_ms / hit_ms.mean() : 0.0, 1);
  return {row};
}

// The planning-service row: one loopback PlanServer, measuring the full remote tier
// ladder for a recurring batch shape — cold remote planning (RPC + full planner),
// server-cache hit (RPC + record encode/decode; what a fresh trainer rank pays when a
// sibling already planned the shape), and client-cache hit (no RPC at all) — next to
// the in-process cold baseline (Engine::Plan, no service). Gates: every remote response
// bit-identical to in-process planning, served-from tiers as expected, two tenants with
// different EngineOptions produce distinct signatures for the same batch, and the min
// server-cache-hit latency >= 10x faster than cold remote planning. count: fresh-client
// server-hit measurements.
std::vector<Row> MeasureService(const Point& p) {
  const Workload w = MakeWorkload(p);
  // A second tenant with a different block size: same request, different plans — the
  // isolation gate below asserts their signatures never collide.
  EngineOptions alt_options = w.options;
  alt_options.planner.block_size = p.block_size * 2;
  const std::unique_ptr<PlanServer> server = StartServer(
      {{"bench", p.cluster, w.options}, {"bench-alt", p.cluster, alt_options}});

  // In-process baseline on an identically-configured private engine.
  std::string expected;
  double in_process_cold_ms = 0.0;
  {
    Engine local(p.cluster, w.options);
    const double start = NowSeconds();
    const PlanHandle cold = local.Plan(w.seqlens, w.spec).value();
    in_process_cold_ms = MsSince(start);
    expected = SerializeTimeless(cold->plan);
  }

  // Cold remote planning: first sighting of the shape anywhere in the service.
  PlanSignature bench_signature;
  double remote_cold_ms = 0.0;
  {
    std::unique_ptr<PlanClient> client = ConnectClient(server->bound_address(), "bench");
    const double start = NowSeconds();
    StatusOr<PlanHandle> cold = client->Plan(w.seqlens, w.spec);
    remote_cold_ms = MsSince(start);
    Require(cold.ok() && client->last_source() == PlanServeSource::kPlanned,
            "cold remote plan was not freshly planned");
    Require(SerializeTimeless(cold.value()->plan) == expected,
            "remote plan differs from in-process planning");
    bench_signature = cold.value()->signature;
  }

  // Tenant isolation: the same request under different EngineOptions must produce a
  // distinct signature (and therefore can never be served from the other's cache).
  {
    std::unique_ptr<PlanClient> alt = ConnectClient(server->bound_address(), "bench-alt");
    const PlanHandle alt_plan = alt->Plan(w.seqlens, w.spec).value();
    Require(alt_plan->signature != bench_signature, "tenant signatures collided");
  }

  // Server-cache hits: a fresh client per repeat (a new trainer rank joining), so the
  // client LRU is cold and the server's in-memory cache serves every request.
  RunningStats server_hit_ms;
  RunningStats client_hit_ms;
  for (int r = 0; r < p.count; ++r) {
    std::unique_ptr<PlanClient> fresh = ConnectClient(server->bound_address(), "bench");
    double start = NowSeconds();
    StatusOr<PlanHandle> hit = fresh->Plan(w.seqlens, w.spec);
    server_hit_ms.Add(MsSince(start));
    Require(hit.ok() && fresh->last_source() == PlanServeSource::kMemoryCache,
            "repeat was not served from the server cache");
    Require(SerializeTimeless(hit.value()->plan) == expected,
            "server-cache hit not bit-identical");
    // Client-cache hit on the same client: no RPC.
    start = NowSeconds();
    StatusOr<PlanHandle> local_hit = fresh->Plan(w.seqlens, w.spec);
    client_hit_ms.Add(MsSince(start));
    Require(local_hit.ok() && fresh->last_source() == PlanServeSource::kClientCache,
            "repeat was not served from the client cache");
  }
  // Gate on the min hit latency, like warm_start: noise inflates the mean on a loaded
  // CI box, but a genuine RPC/encode regression moves the floor.
  const double floor_speedup =
      server_hit_ms.min() > 0.0 ? remote_cold_ms / server_hit_ms.min() : 0.0;
  Require(floor_speedup >= 10.0,
          "service speedup %.1fx is under the 10x regression bar (remote cold %.2f ms, "
          "best server hit %.4f ms)",
          floor_speedup, remote_cold_ms, server_hit_ms.min());
  server->Stop();
  Row row = Identity(p);
  row.Int("repeats", p.count)
      .Num("in_process_cold_ms", in_process_cold_ms, 4)
      .Num("remote_cold_ms", remote_cold_ms, 4)
      .Num("server_hit_ms_mean", server_hit_ms.mean(), 6)
      .Num("server_hit_ms_min", server_hit_ms.min(), 6)
      .Num("client_hit_ms_mean", client_hit_ms.mean(), 6)
      .Num("client_hit_ms_min", client_hit_ms.min(), 6)
      .Num("speedup",
           server_hit_ms.mean() > 0.0 ? remote_cold_ms / server_hit_ms.mean() : 0.0, 1);
  return {row};
}

// The replicated-service row: a 3-replica loopback fleet with deterministic serve-side
// stragglers (every Nth serve per replica stalls), measured three ways — un-hedged,
// hedged, and with one replica killed mid-run. Gates (exit non-zero): every response in
// every pass bit-identical to in-process planning, zero lost requests after the kill
// (failover or local fallback serves them all), hedged p99 <= un-hedged p99 (small
// absolute slack for the case where a hedge itself lands on a straggler slot), and the
// hedge volume within the configured budget. count: requests per pass.
std::vector<Row> MeasureReplicatedService(const Point& p) {
  const Workload w = MakeWorkload(p);
  const int requests = p.count;

  // Distinct recurring shapes; each routes to a stable rendezvous primary.
  std::vector<std::vector<int64_t>> shapes;
  for (int i = 0; i < requests; ++i) {
    shapes.push_back({6 * p.block_size + p.block_size * (i % 11) / 2 + 32 * i,
                      3 * p.block_size + 16 * (i % 7)});
  }
  Engine local(p.cluster, w.options);
  std::vector<std::string> expected;
  for (const auto& shape : shapes) {
    expected.push_back(SerializeTimeless(local.Plan(shape, w.spec).value()->plan));
  }

  // The fleet: three replicas, one shared tenant config, one injector each (rates are
  // armed only after warmup, so op counters start each pass at a known phase).
  std::vector<std::shared_ptr<FaultInjector>> injectors;
  std::vector<std::unique_ptr<PlanServer>> servers;
  std::vector<ServiceAddress> addresses;
  for (int i = 0; i < 3; ++i) {
    injectors.push_back(
        std::make_shared<FaultInjector>(0xbe7c0000ULL + static_cast<uint64_t>(i)));
    PlanServerOptions server_options;
    server_options.fault_injector = injectors.back();
    servers.push_back(StartServer({{"bench", p.cluster, w.options}}, server_options));
    addresses.push_back(servers.back()->bound_address());
  }

  // Warm every replica with every shape, so the measured passes isolate the serving
  // path (cache hit vs straggler stall vs failover) from cold planning.
  for (const auto& address : addresses) {
    std::unique_ptr<PlanClient> warm = ConnectClient(address, "bench", 0);
    for (const auto& shape : shapes) {
      Require(warm->Plan(shape, w.spec).ok(), "replica warmup plan failed");
    }
  }

  ReplicaSetOptions base;
  base.tenant = "bench";
  base.cache_capacity = 0;  // Every request crosses the wire.
  base.hedging = false;

  // Arm one deterministic straggler: every (requests/3)th serve on the replica that
  // rendezvous routing favors most stalls 25ms. Periodic injection (not probabilistic)
  // keeps the stall count stable run to run; the period is chosen so that (a) warmup —
  // `requests` serves per server — leaves the op counter exactly on a period boundary,
  // and (b) each measured pass crosses at least one boundary (the favored replica is
  // primary for >= requests/3 shapes by pigeonhole), so every pass sees >= 1 stall and
  // the p99 sample genuinely measures tail behavior.
  size_t straggler = 0;
  {
    const std::unique_ptr<ReplicaSet> probe = ReplicaSet::Create(addresses, base).value();
    std::vector<int> primaries(3, 0);
    for (const auto& shape : shapes) {
      ++primaries[probe->RouteOrder(shape, w.spec)[0]];
    }
    straggler = static_cast<size_t>(
        std::max_element(primaries.begin(), primaries.end()) - primaries.begin());
  }
  FaultRates straggle;
  straggle.every_n = requests / 3;
  straggle.periodic_action = FaultAction::kDelay;
  straggle.delay_ms = 25;
  injectors[straggler]->SetRates(FaultPoint::kServe, straggle);

  const auto run_pass = [&](ReplicaSet& set, const char* pass) {
    std::vector<double> ms;
    ms.reserve(shapes.size());
    for (size_t i = 0; i < shapes.size(); ++i) {
      const double start = NowSeconds();
      StatusOr<PlanHandle> plan = set.Plan(shapes[i], w.spec);
      ms.push_back(MsSince(start));
      Require(plan.ok(), "%s request %zu lost: %s", pass, i,
              plan.status().ToString().c_str());
      Require(SerializeTimeless(plan.value()->plan) == expected[i],
              "%s request %zu not bit-identical to in-process planning", pass, i);
    }
    return ms;
  };

  bench::SampleSummary unhedged_ms;
  {
    std::unique_ptr<ReplicaSet> unhedged = ReplicaSet::Create(addresses, base).value();
    unhedged_ms = bench::Summarize(run_pass(*unhedged, "unhedged"));
  }

  // Hedge delays floored above loopback serve jitter (a warm serve is ~1-3 ms), so
  // only genuine stalls hedge; the burst covers the requests that queue behind a
  // straggling attempt on the same replica connection.
  ReplicaSetOptions hedged_options = base;
  hedged_options.hedging = true;
  hedged_options.hedge_min_delay_ms = 10;
  hedged_options.hedge_max_delay_ms = 12;
  hedged_options.hedge_budget_fraction = 0.05;
  hedged_options.hedge_budget_burst = 2;
  bench::SampleSummary hedged_ms;
  ReplicaSetStats hedged_stats;
  {
    std::unique_ptr<ReplicaSet> hedged =
        ReplicaSet::Create(addresses, hedged_options).value();
    hedged_ms = bench::Summarize(run_pass(*hedged, "hedged"));
    hedged_stats = hedged->stats();
  }
  const double allowance =
      static_cast<double>(hedged_options.hedge_budget_burst) +
      hedged_options.hedge_budget_fraction * static_cast<double>(hedged_stats.requests);
  Require(static_cast<double>(hedged_stats.hedges_sent) <= allowance,
          "hedge volume %lld exceeds budget %.1f (burst %d + %.0f%% of %lld requests)",
          static_cast<long long>(hedged_stats.hedges_sent), allowance,
          hedged_options.hedge_budget_burst,
          hedged_options.hedge_budget_fraction * 100.0,
          static_cast<long long>(hedged_stats.requests));
  // 2ms slack: when a hedge itself lands on a straggler slot the request rides out the
  // full stall on both replicas, making the two p99s equal up to scheduler noise.
  Require(hedged_ms.p99 <= unhedged_ms.p99 + 2.0,
          "hedged p99 %.2f ms did not beat un-hedged p99 %.2f ms", hedged_ms.p99,
          unhedged_ms.p99);

  // Kill one replica mid-run: the fleet (plus the local-fallback engine as a last
  // resort) must serve every request, bit-identical.
  ReplicaSetOptions survivor_options = hedged_options;
  survivor_options.local_fallback = true;
  survivor_options.fallback_cluster = p.cluster;
  survivor_options.fallback_options = w.options;
  int64_t failovers_after_kill = 0;
  {
    std::unique_ptr<ReplicaSet> survivor =
        ReplicaSet::Create(addresses, survivor_options).value();
    for (size_t i = 0; i < shapes.size() / 2; ++i) {
      Require(survivor->Plan(shapes[i], w.spec).ok(), "pre-kill request %zu lost", i);
    }
    const size_t victim = survivor->RouteOrder(shapes[0], w.spec)[0];
    servers[victim]->Stop();  // Mid-run: live connections, warm caches, gone.
    (void)run_pass(*survivor, "post-kill");
    failovers_after_kill = survivor->stats().failovers;
    Require(failovers_after_kill >= 1,
            "killing a primary caused no failover (routing never exercised the dead "
            "replica?)");
  }
  for (auto& server : servers) {
    server->Stop();
  }
  Row row = Identity(p);
  row.Int("replicas", 3)
      .Int("requests", requests)
      .Num("unhedged_p50_ms", unhedged_ms.p50, 4)
      .Num("unhedged_p99_ms", unhedged_ms.p99, 4)
      .Num("hedged_p50_ms", hedged_ms.p50, 4)
      .Num("hedged_p99_ms", hedged_ms.p99, 4)
      .Int("hedges_sent", hedged_stats.hedges_sent)
      .Int("hedge_wins", hedged_stats.hedge_wins)
      .Num("hedge_volume",
           hedged_stats.requests > 0 ? static_cast<double>(hedged_stats.hedges_sent) /
                                           static_cast<double>(hedged_stats.requests)
                                     : 0.0,
           4)
      .Int("failovers_after_kill", failovers_after_kill)
      .Int("lost_requests", 0);  // Any loss exited above.
  return {row};
}

// Threads in this process right now (/proc/self/status), or -1.
int ReadProcessThreads() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1;
  }
  int threads = -1;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "Threads: %d", &threads) == 1) {
      break;
    }
  }
  std::fclose(f);
  return threads;
}

// Threads in this process once the count settles. The scaling gate compares this across
// connection counts: an event-driven server's thread count must not move. A thread whose
// join has returned can still be counted while the kernel finishes its exit, so one read
// right after the drivers join may count a driver; the count is read until two reads
// 2 ms apart agree, at most kMaxReads times.
int CountProcessThreads() {
  constexpr int kMaxReads = 50;
  int previous = ReadProcessThreads();
  for (int read = 1; read < kMaxReads; ++read) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const int current = ReadProcessThreads();
    if (current == previous) {
      return current;
    }
    previous = current;
  }
  return previous;
}

// The connection-scaling sweep: one loopback PlanServer with a fixed IO-thread pool,
// N in {1, 16, 64, 256} concurrent connections all replaying the same warm shape, a
// small fixed pool of closed-loop driver threads round-robining over them (so the
// sweep varies connection count, not offered concurrency). Gates (exit non-zero):
// every response bit-identical to in-process planning, server thread count identical
// at every N > 1 (the event loop multiplexes; no thread per connection), every warm
// serve zero-copy (record bytes written straight from the shared cache), and p99 at
// the largest N within 2x of the single-connection p99 (plus a 2 ms grace for loaded
// CI boxes). count: requests per connection. Each row reports the closed-loop driver
// threads (fixed; != connections), the total RPCs, and the process threads while all
// N connections are open.
std::vector<Row> MeasureServiceScaling(const Point& p) {
  const Workload w = MakeWorkload(p);
  const int drivers = static_cast<int>(
      std::min<unsigned>(8, std::max<unsigned>(2, std::thread::hardware_concurrency())));
  PlanServerOptions server_options;
  server_options.workers = drivers;  // A full driver pool never queues on workers.
  const std::unique_ptr<PlanServer> server =
      StartServer({{"bench", p.cluster, w.options}}, server_options);

  PlanServiceRequest request;
  request.tenant = "bench";
  request.seqlens = w.seqlens;
  request.mask_spec = w.spec;
  request.block_size = p.block_size;
  const std::string payload = SerializePlanServiceRequest(request);

  // In-process baseline plan, then one warmup RPC: validates the served record decodes
  // to the identical plan and pins the exact record bytes every later response must
  // match (the record encode is deterministic per signature).
  std::string expected_record;
  {
    Engine local(p.cluster, w.options);
    const std::string expected =
        SerializeTimeless(local.Plan(w.seqlens, w.spec).value()->plan);
    StatusOr<Socket> warm = ConnectSocket(server->bound_address(), /*timeout_ms=*/2000);
    Require(warm.ok() && WriteFrame(warm.value(), FrameType::kPlanRequest, payload).ok(),
            "scaling warmup RPC failed");
    StatusOr<Frame> reply = ReadFrame(warm.value(), kMaxFramePayloadBytes);
    Require(reply.ok(), "scaling warmup read failed");
    StatusOr<PlanServiceResponseView> response =
        DeserializePlanServiceResponseView(reply.value().payload);
    Require(response.ok() && response.value().code == StatusCode::kOk,
            "scaling warmup response not OK");
    StatusOr<std::pair<PlanSignature, BatchPlan>> decoded =
        PlanStore::DecodeRecord(response.value().record);
    Require(decoded.ok() && SerializeTimeless(decoded.value().second) == expected,
            "scaling warmup record not bit-identical to in-process planning");
    expected_record = response.value().record;
  }

  const auto measure = [&](int connections) {
    const int row_drivers = connections == 1 ? 1 : std::min(drivers, connections);
    // Keep every row's sample count meaningful: at least ~256 samples even at N=1,
    // so the p99 is a real tail statistic and not the max of a handful of RPCs.
    const int per_conn = std::max(p.count, 256 / connections);

    std::vector<Socket> sockets;
    sockets.reserve(static_cast<size_t>(connections));
    for (int c = 0; c < connections; ++c) {
      StatusOr<Socket> socket =
          ConnectSocket(server->bound_address(), /*timeout_ms=*/2000);
      Require(socket.ok(), "scaling connect %d/%d failed: %s", c, connections,
              socket.status().ToString().c_str());
      socket.value().set_io_timeout_ms(10000);
      sockets.push_back(std::move(socket).value());
    }

    // Each driver owns a disjoint slice of the sockets (frames on one connection must
    // not interleave) and runs them closed-loop: one request in flight per connection.
    std::vector<std::vector<double>> samples(static_cast<size_t>(row_drivers));
    std::atomic<bool> failed{false};
    const double sweep_start = NowSeconds();
    std::vector<std::thread> threads;
    for (int d = 0; d < row_drivers; ++d) {
      threads.emplace_back([&, d] {
        std::vector<double>& mine = samples[static_cast<size_t>(d)];
        for (int r = 0; r < per_conn && !failed.load(); ++r) {
          for (int c = d; c < connections; c += row_drivers) {
            Socket& socket = sockets[static_cast<size_t>(c)];
            const double start = NowSeconds();
            if (!WriteFrame(socket, FrameType::kPlanRequest, payload).ok()) {
              failed.store(true);
              return;
            }
            StatusOr<Frame> reply = ReadFrame(socket, kMaxFramePayloadBytes);
            if (!reply.ok()) {
              failed.store(true);
              return;
            }
            mine.push_back(MsSince(start));
            StatusOr<PlanServiceResponseView> response =
                DeserializePlanServiceResponseView(reply.value().payload);
            if (!response.ok() || response.value().code != StatusCode::kOk ||
                response.value().record != expected_record) {
              failed.store(true);
              return;
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    Require(!failed.load(), "scaling RPC failed or response diverged at %d connections",
            connections);
    const double elapsed = NowSeconds() - sweep_start;
    std::vector<double> all;
    for (const std::vector<double>& part : samples) {
      all.insert(all.end(), part.begin(), part.end());
    }
    const bench::SampleSummary latency = bench::Summarize(std::move(all));
    const int requests = per_conn * connections;
    Row row = Identity(p);
    row.Int("connections", connections)
        .Int("drivers", row_drivers)
        .Int("requests", requests)
        .Int("io_threads", server->io_thread_count())
        // All N sockets are still open here: a thread-per-connection server would show
        // N reader threads in this count.
        .Int("process_threads", CountProcessThreads())
        .Num("p50_ms", latency.p50, 4)
        .Num("p99_ms", latency.p99, 4)
        .Num("rps", elapsed > 0.0 ? static_cast<double>(requests) / elapsed : 0.0, 0);
    return row;
  };

  std::vector<Row> rows;
  for (const int connections : {1, 16, 64, 256}) {
    rows.push_back(measure(connections));
  }

  // Gate: bounded threads — identical process thread count at every multi-connection
  // N (the driver pool is fixed, so any growth is server-side threads per connection).
  for (size_t i = 2; i < rows.size(); ++i) {
    Require(rows[i]["process_threads"] == rows[1]["process_threads"],
            "server thread count scaled with connections (%.0f threads at N=%.0f vs "
            "%.0f at N=%.0f)",
            rows[1]["process_threads"], rows[1]["connections"],
            rows[i]["process_threads"], rows[i]["connections"]);
  }
  // Gate: flat tail — p99 at the largest N within 2x of single-connection p99, with a
  // 2 ms absolute grace: on a small CI box the driver pool itself contends with the
  // server for cores, which inflates sub-millisecond percentiles by scheduler quanta
  // that have nothing to do with connection scaling. For the same reason a single
  // scheduler stall can spike one pass's p99, so a failing widest row is re-measured
  // (best of 3): genuine connection-scaling pathology reproduces on every pass, a
  // co-tenant CPU burst does not.
  const double base_p99 = rows.front()["p99_ms"];
  const auto p99_exceeds_envelope = [&](const Row& row) {
    return row["p99_ms"] > 2.0 * base_p99 && row["p99_ms"] > base_p99 + 2.0;
  };
  for (int retry = 0; retry < 2 && p99_exceeds_envelope(rows.back()); ++retry) {
    std::fprintf(stderr,
                 "bench_report: p99 %.3f ms at N=%.0f outside envelope, re-measuring "
                 "(retry %d)\n",
                 rows.back()["p99_ms"], rows.back()["connections"], retry + 1);
    Row again = measure(static_cast<int>(rows.back()["connections"]));
    // The thread-equality gate above already ran: only adopt a retry that would
    // still have passed it.
    if (again["p99_ms"] < rows.back()["p99_ms"] &&
        (rows.size() < 3 || again["process_threads"] == rows[1]["process_threads"])) {
      rows.back() = again;
    }
  }
  Require(!p99_exceeds_envelope(rows.back()),
          "p99 scaled with connections (%.3f ms at N=%.0f vs %.3f ms at N=%.0f)",
          base_p99, rows.front()["connections"], rows.back()["p99_ms"],
          rows.back()["connections"]);
  // Gate: zero-copy serving — every warm hit above framed the shared cached record
  // without copying it (warmup + all sweep requests).
  double total_requests = 1;
  for (const Row& row : rows) {
    total_requests += row["requests"];
  }
  const int64_t zero_copy_serves = server->stats().zero_copy_serves;
  Require(static_cast<double>(zero_copy_serves) >= total_requests,
          "only %lld of %.0f serves were zero-copy",
          static_cast<long long>(zero_copy_serves), total_requests);
  server->Stop();
  return rows;
}

struct Section {
  const char* name;
  std::function<std::vector<Row>(const Point&)> measure;
  std::vector<Point> smoke;
  std::vector<Point> full;
  std::vector<Row> rows = {};  // Filled as the section runs.
};

constexpr int64_t kSmokeBudget = 16384;
constexpr int64_t kFullBudget = 131072;

Point Testbed(int64_t budget, int64_t block_size, int count,
              DatasetKind dataset = DatasetKind::kLongAlign,
              MaskKind mask = MaskKind::kCausal) {
  return {dataset, mask, block_size, count, budget};
}

Point Partition(int k, int per_group, int repeats) {
  return {.count = repeats, .k = k, .per_group = per_group};
}

std::vector<Point> PlanningPoints(bool smoke) {
  const int batches = smoke ? 1 : 4;
  const int64_t budget = smoke ? kSmokeBudget : kFullBudget;
  const std::vector<int64_t> block_sizes =
      smoke ? std::vector<int64_t>{2048} : std::vector<int64_t>{512, 1024, 2048, 4096};
  const std::vector<DatasetKind> datasets = {DatasetKind::kLongAlign,
                                             DatasetKind::kLongDataCollections};
  std::vector<Point> points;
  for (DatasetKind dataset : datasets) {
    for (int64_t block_size : block_sizes) {
      for (MaskKind mask : AllMaskKinds()) {
        points.push_back(Testbed(budget, block_size, batches, dataset, mask));
      }
    }
  }
  // End-to-end planning at production device counts: the paper's testbed topology scaled
  // to 128 CP ranks. One row per dataset keeps the full run affordable.
  for (DatasetKind dataset : datasets) {
    Point large = Testbed(smoke ? budget : budget / 2, 2048, batches, dataset);
    large.cluster.num_nodes = 16;
    large.cluster.devices_per_node = 8;
    points.push_back(large);
  }
  return points;
}

// Writes the report to a temp file and renames it into place so an interrupted run can
// never leave a truncated JSON under the real name (cross-PR perf diffs parse these
// files).
void WriteReport(const std::string& path, bool smoke,
                 const std::vector<Section>& sections) {
  const std::string temp = path + ".tmp";
  FILE* f = std::fopen(temp.c_str(), "w");
  Require(f != nullptr, "cannot open %s for writing", temp.c_str());
  std::fprintf(f, "{\n  \"schema\": \"dcp.bench_planning.v8\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  for (size_t s = 0; s < sections.size(); ++s) {
    const std::vector<Row>& rows = sections[s].rows;
    std::fprintf(f, "  \"%s\": [\n", sections[s].name);
    for (size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f, "    %s%s\n", rows[i].Json().c_str(),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]%s\n", s + 1 < sections.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  Require(std::fclose(f) == 0, "cannot finish writing %s", temp.c_str());
  Require(std::rename(temp.c_str(), path.c_str()) == 0, "cannot rename %s to %s",
          temp.c_str(), path.c_str());
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_planning.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: bench_report [--smoke] [--json=PATH]\n");
      return 2;
    }
  }
  const std::string store_dir = json_path + ".plan_store";
  const DatasetKind collections = DatasetKind::kLongDataCollections;

  std::vector<Section> sections = {
      {"partitioner", MeasurePartitioner,
       {Partition(4, 16, 2), Partition(8, 32, 1),
        Partition(64, 8, 1)},  // The last is a tiny large-k config.
       // Large-k rows: same vertex count, scaling only the device count, so successive
       // PRs can diff how planning time scales with k.
       {Partition(4, 64, 5), Partition(8, 128, 3), Partition(16, 256, 2),
        Partition(64, 64, 2), Partition(128, 32, 2), Partition(256, 16, 2)}},
      {"planning", MeasurePlanning, PlanningPoints(true), PlanningPoints(false)},
      // Repeat-batch workload: the cache hit-path latency next to the cold planning time.
      {"repeat_batch", MeasureRepeatBatch, {Testbed(kSmokeBudget, 2048, 8)},
       {Testbed(kFullBudget, 2048, 32),
        Testbed(kFullBudget, 1024, 32, collections, MaskKind::kLambda)}},
      // Instrumentation tax on the cache-hit path: enabled-vs-disabled latency
      // recording on the same engine, gated at 1.10x inside the measure function.
      {"metrics_overhead", MeasureMetricsOverhead, {Testbed(kSmokeBudget, 2048, 64)},
       {Testbed(kFullBudget, 2048, 256)}},
      // Cross-process warm start through the persistent plan store. Small block sizes
      // make the cold plan genuinely expensive, so the row exercises the case
      // persistence is for. Smoke shrinks the token budget, so drop the block size with
      // it to keep the cold plan expensive enough (64 chunks) that the row measures
      // planning, not disk latency. Full runs causal on both datasets: warm start pays
      // off where planning is expensive. Sparse masks (lambda) plan so cheaply that the
      // disk hit is near break-even — that case is served by the in-memory repeat_batch
      // path, not the store.
      {"warm_start",
       [&](const Point& p) { return MeasureWarmStart(p, store_dir); },
       {Testbed(kSmokeBudget, 256, 5)},
       {Testbed(kFullBudget, 512, 8), Testbed(kFullBudget, 512, 8, collections)}},
      // Remote planning over the loopback service: the same recurring-shape workload as
      // repeat_batch/warm_start, measured through the full RPC path. Smoke drops the
      // block size further than warm_start: the service hit path pays RPC + record
      // decode + mask rebuild, so the cold plan must be decisively expensive for the row
      // to measure planning displacement rather than loopback latency.
      {"service", MeasureService, {Testbed(kSmokeBudget, 128, 5)},
       {Testbed(kFullBudget, 512, 8), Testbed(kFullBudget, 512, 8, collections)}},
      // Connection scaling through the event-driven server: the same warm shape over
      // N in {1, 16, 64, 256} concurrent connections with a fixed driver pool.
      {"service_scaling", MeasureServiceScaling, {Testbed(kSmokeBudget, 128, 4)},
       {Testbed(kFullBudget, 512, 8)}},
      // The replicated fleet under deterministic stragglers and a mid-run replica kill.
      // Request counts are multiples of 3 (see the straggler-period invariant inside).
      {"service_replicated", MeasureReplicatedService, {Testbed(kSmokeBudget, 128, 48)},
       {Testbed(kFullBudget, 256, 96)}},
  };

  std::string counts;
  for (Section& section : sections) {
    for (const Point& point : smoke ? section.smoke : section.full) {
      for (Row& row : section.measure(point)) {
        std::printf("%s: %s\n", section.name, row.Json().c_str());
        section.rows.push_back(std::move(row));
      }
    }
    counts += (counts.empty() ? "" : ", ") + std::to_string(section.rows.size()) + " " +
              section.name;
  }
  WriteReport(json_path, smoke, sections);
  std::printf("bench_report: wrote %s (%s rows)\n", json_path.c_str(), counts.c_str());
  return 0;
}

}  // namespace
}  // namespace dcp

int main(int argc, char** argv) { return dcp::Main(argc, argv); }
