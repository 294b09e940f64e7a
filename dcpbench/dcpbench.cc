// dcpbench: the end-to-end and per-layer benchmark of the DCP planner, plan store and
// planning service. One process runs one workload (README.md beside this file says why
// each exists and which layer each stresses):
//
//   dcpbench --workload=train_cold|train_replay|remote_warm --seed=S
//            [--seconds=10] [--trace] [--json=OUT] [--trace-out=FILE] [--work-dir=DIR]
//   dcpbench --smoke      # every workload, tiny sizes, traced; a few seconds
//
// A run sets the system up at least three times and for at least two seconds (the median
// is setup_s), serves every input once in an untimed verification pass, then drives a
// closed loop for --seconds. Set-up and the loop run on one vCPU (see ConfineProcess),
// beside a speed probe (dcpbench_speed.h) by which every end-to-end time is stated at
// the reference host's speed: the host shares its cores with other tenants, and its
// speed from one run to the next would otherwise move the times more than most changes
// to this program do.
// Untraced, the loop goes through the public composite APIs
// (DcpDataLoader::Next, PlanClient::Plan) and yields the end-to-end metrics. With
// --trace the first half of the window runs that same loop and the second half performs
// each op through the layers' own public functions, with a span around every call; a
// layer metric is the mean self time of one call, and the ratio of the two halves'
// throughput is the tracing overhead. The post-run check also plans the reference inputs
// layer by layer in a traced run, so the planner's layers are timed on every workload.
//
// Only --seed reaches the input generators; the system under test sees only the
// generated sequence lengths and mask specs. Every op's status and plan signature are
// checked as it is served; the first serve of each signature in the verification pass,
// a seeded sample of train_cold's timed ops and every traced op are afterwards compared
// bit for bit with in-process planning. After the window the system also serves a fixed
// reference set, the same for every seed; the plan-quality metrics price those plans,
// outside any timed region.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/static_planner.h"
#include "bench_common.h"
#include "bench_stats.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/block_gen.h"
#include "core/dataloader.h"
#include "core/engine.h"
#include "core/hypergraph_build.h"
#include "core/placement.h"
#include "core/plan_compile.h"
#include "core/plan_signature.h"
#include "core/plan_store.h"
#include "core/schedule.h"
#include "dcpbench_speed.h"
#include "dcpbench_trace.h"
#include "e2e/iteration_model.h"
#include "e2e/model_spec.h"
#include "masks/mask.h"
#include "runtime/plan_validate.h"
#include "service/frame.h"
#include "service/plan_client.h"
#include "service/plan_server.h"
#include "service/tenant_registry.h"
#include "service/transport.h"

namespace dcp::bench {
namespace {

namespace fs = std::filesystem;

constexpr int64_t kTokenBudget = 131072;
constexpr int kLookahead = 2;  // DcpDataLoader look-ahead (paper's kappa) per mask.
// Thread budget of the timed loops. Each plan runs on one Engine (or server worker)
// thread, and the partitioner fans out on the process's global pool, which dcpbench
// replaces with a pool of kHelperThreads. On a 4-vCPU host, train_cold's throughput
// spread over eight runs of one commit was 22% with the default pools (2 planners, 4
// helpers: six threads contending) and 5% with this budget.
constexpr int kPlannerThreads = 1;
constexpr int kHelperThreads = 1;
// Untimed work (filling train_replay's store, the post-run bit-for-bit check) may use
// two threads to save wall time.
constexpr int kUntimedThreads = 2;
constexpr size_t kSetupMinRepeats = 3;
const char* const kTenant = "bench";
// The remote tenant's plan cache holds twice the warm pool. The Engine splits its
// capacity evenly over 4 shards chosen by signature hash, so a pool that merely equalled
// the capacity would overflow some shard and thrash; the spare half holds the reference
// set served after the window.
constexpr int kTenantCacheCapacity = 256;

// Plan quality is priced on one fixed set of inputs: the same batches for every --seed
// and every workload. The quality metrics then read the same on every run of a commit,
// so their 1% bounds see a 1% change in the plans rather than a change of inputs.
constexpr uint64_t kReferenceSeed = 22;
// train_cold's timed ops are all first serves; one in this many, chosen from --seed, is
// fingerprinted and compared bit for bit after the run (re-planning all would double it).
constexpr uint64_t kColdCheckEvery = 16;

// Input counts. The stored and warm sets are drawn from --seed, and the mean cost of an
// op over a set varies with the draw; they are large enough that this adds little to the
// spread between runs with different seeds.
struct Sizing {
  // Set-up repeats at least kSetupMinRepeats times and for at least this long, so that a
  // set-up of milliseconds (train_replay's, train_cold's) is repeated often enough for a
  // steady median; a set-up of seconds (remote_warm's) runs the minimum count.
  double setup_min_seconds = 2.0;
  int reference_per_mask = 8;      // Fixed reference inputs, served and priced.
  int cold_verify_per_mask = 25;   // train_cold: first ops, verified before the window.
  int replay_per_mask = 128;       // train_replay: batches per mask in the store.
  int pool_per_mask = 32;          // remote_warm: warm shapes per mask.
};

enum class Stream : uint64_t {
  kCold = 1,
  kColdMirror,
  kReplay,
  kPool,
  kPick,
  kPickMirror,
  kReference,
  kColdCheck,
};

// Independent generator seeds, all derived from --seed.
uint64_t SubSeed(uint64_t seed, Stream stream, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (static_cast<uint64_t>(stream) << 40) + index;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Fatal: may be called from any thread, so it skips static destructors.
[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "dcpbench: %s\n", message.c_str());
  std::fflush(nullptr);
  std::_Exit(2);
}

void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    Die(std::string(what) + ": " + status.ToString());
  }
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Env {
  ClusterSpec cluster = ClusterSpec::EndToEndTestbed();
  PlannerOptions planner = [] {
    MicroBenchConfig config;
    config.block_size = 2048;
    return config.MakePlannerOptions();
  }();
  Sizing sizing;
  uint64_t seed = 1;
  std::string work_dir;  // This process's store directories live here.
  SpeedProbe probe;      // Run between set-ups and between timed ops.

  std::string Path(const std::string& name) const { return work_dir + "/" + name; }
};

// One plan request plus the signature its served plan must carry.
struct Request {
  std::vector<int64_t> seqlens;
  MaskSpec mask;
  PlanSignature signature;
};

// One mask's seeded LongDataCollections batches, as plan requests.
class RequestStream {
 public:
  RequestStream(const Env& env, uint64_t seed, MaskSpec mask)
      : env_(&env), stream_(MakeBatchStream(seed)), mask_(mask) {}

  static BatchStream MakeBatchStream(uint64_t seed) {
    DatasetConfig data;
    data.kind = DatasetKind::kLongDataCollections;
    data.seed = seed;
    BatchingConfig batching;
    batching.token_budget = kTokenBudget;
    return BatchStream(LengthSampler(data), batching);
  }

  Request Next() { return Make(stream_.NextBatch().seqlens, mask_); }
  Request Next(const MaskSpec& mask) { return Make(stream_.NextBatch().seqlens, mask); }

 private:
  Request Make(std::vector<int64_t> seqlens, const MaskSpec& mask) const {
    Request request;
    request.signature = ComputePlanSignature(seqlens, mask, env_->cluster, env_->planner);
    request.seqlens = std::move(seqlens);
    request.mask = mask;
    return request;
  }

  const Env* env_;
  BatchStream stream_;
  MaskSpec mask_;
};

MaskSpec MaskAt(size_t index) {
  const std::vector<MaskKind>& kinds = AllMaskKinds();
  return MaskSpec::ForKind(kinds[index % kinds.size()]);
}

size_t NumMasks() { return AllMaskKinds().size(); }

std::vector<Request> ReferenceSet(const Env& env) {
  std::vector<Request> requests;
  for (size_t m = 0; m < NumMasks(); ++m) {
    RequestStream stream(env, SubSeed(kReferenceSeed, Stream::kReference, m), MaskAt(m));
    for (int i = 0; i < env.sizing.reference_per_mask; ++i) {
      requests.push_back(stream.Next());
    }
  }
  return requests;
}

// The cheap per-op check: the plan answers this request on this cluster.
bool Answers(const PlanHandle& handle, const Request& request, const Env& env) {
  return handle != nullptr && handle->signature == request.signature &&
         handle->plan.num_devices() == env.cluster.num_devices() &&
         handle->masks.size() == request.seqlens.size();
}

// ---- Bit-identity against in-process planning, and plan quality ---------------------

// A served plan, fingerprinted by the digest of its PlanStore record and the planning
// time embedded in it — the one field two runs of the deterministic planner disagree on.
struct Fingerprint {
  uint64_t digest = 0;
  double planning_seconds = 0.0;
};

uint64_t Digest(std::string_view bytes) { return std::hash<std::string_view>{}(bytes); }

Fingerprint FingerprintOf(const PlanSignature& signature, const BatchPlan& plan) {
  return {Digest(PlanStore::EncodeRecord(signature, plan)), plan.stats.planning_seconds};
}

// Plan quality over the reference set. Means per plan, except the two ratios: DCP's
// total over the MLM baseline's (TransformerEngine-style static CP, as in fig22) on the
// same inputs.
struct Quality {
  int64_t plans = 0;
  double sim_iter_ms = 0.0;
  double sim_exposed_comm_ms = 0.0;
  double sim_iter_vs_mlm = 0.0;
  double sim_exposed_comm_vs_mlm = 0.0;
  double plan_comm_mb = 0.0;
  double plan_imbalance = 0.0;
};

PlacementOptions PlacementOptionsFor(const Env& env) {
  // The mapping PlanBatch applies (core/planner.cc); the bit-identity checks on traced
  // plans are what keep the two in step. The library exposes no such mapping yet: when
  // it does, call it here and in PlanBatch alike.
  const PlannerOptions& o = env.planner;
  PlacementOptions placement;
  placement.num_nodes = env.cluster.num_nodes;
  placement.devices_per_node = env.cluster.devices_per_node;
  placement.eps_inter = o.eps_inter;
  placement.eps_intra = o.eps_intra;
  placement.eps_data = o.eps_data;
  placement.hierarchical = o.hierarchical;
  placement.use_multilevel = o.use_multilevel;
  placement.seed = o.seed;
  placement.vcycles = o.partition_vcycles;
  placement.vcycle_iterations = o.partition_vcycle_iterations;
  placement.refinement_passes = o.partition_refinement_passes;
  placement.initial_tries = o.partition_initial_tries;
  placement.coarsen_until_per_part = o.partition_coarsen_until_per_part;
  placement.coarsening_grain = o.partition_coarsening_grain;
  return placement;
}

// PlanBatch (core/planner.cc), layer by layer: the same public calls in the same order,
// each under a span. Sets *valid to ValidatePlan's verdict.
BatchPlan TracedPlanBatch(const Env& env, const std::vector<int64_t>& seqlens,
                          const std::vector<SequenceMask>& masks, int64_t op, bool* valid) {
  const int64_t planning_start = NowNs();
  BlockGraph graph;
  {
    ScopedSpan span("planner.block_gen", op);
    graph = GenerateBlocks(env.planner.MakeLayout(seqlens), masks);
  }
  BuiltHypergraph built;
  {
    ScopedSpan span("planner.hypergraph_build", op);
    built = BuildPlacementHypergraph(graph);
  }
  PlacementResult placement;
  {
    // PlaceBlocks reports its multilevel stage times; they become child spans laid end
    // to end, and the rest of the call is this span's self time (place_other). The
    // stages are summed over partitioner runs that overlap on the global pool, so when
    // the sum exceeds the call's wall time they are scaled down to share it.
    ScopedSpan span("planner.place", op);
    const int64_t start = NowNs();
    placement = PlaceBlocks(graph, built, PlacementOptionsFor(env));
    const PartitionStageSeconds& stages = placement.stages;
    const double wall_s = static_cast<double>(NowNs() - start) * 1e-9;
    const double scale = stages.Total() > wall_s ? wall_s / stages.Total() * 1e9 : 1e9;
    const int64_t coarsen_end = start + static_cast<int64_t>(stages.coarsen * scale);
    const int64_t initial_end = coarsen_end + static_cast<int64_t>(stages.initial * scale);
    const int64_t refine_end = initial_end + static_cast<int64_t>(stages.refine * scale);
    Tracer().AddChild("planner.coarsen", start, coarsen_end);
    Tracer().AddChild("planner.initial", coarsen_end, initial_end);
    Tracer().AddChild("planner.refine", initial_end, refine_end);
  }
  ScheduleResult schedule;
  {
    ScopedSpan span("planner.schedule", op);
    ScheduleOptions schedule_options;
    schedule_options.divisions = env.planner.divisions;
    schedule = ScheduleBlocks(graph, placement, env.cluster.num_devices(), schedule_options);
  }
  BatchPlan plan;
  {
    ScopedSpan span("planner.compile", op);
    plan = CompilePlan(graph, placement, schedule, env.cluster);
    plan.stats.partition_cost = placement.device_level_cost;
  }
  {
    ScopedSpan span("planner.validate", op);
    *valid = ValidatePlan(plan).ok;
  }
  plan.stats.planning_seconds = static_cast<double>(NowNs() - planning_start) * 1e-9;
  return plan;
}

class Checker {
 public:
  // Records one served plan for the post-run comparison. `priced` puts its signature in
  // the plan-quality pool.
  void Record(const Request& request, const Fingerprint& fp, bool priced) {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = entries_[request.signature];
    if (entry.served.empty()) {
      entry.request = request;
    }
    entry.priced = entry.priced || priced;
    uint64_t seconds_bits = 0;
    std::memcpy(&seconds_bits, &fp.planning_seconds, sizeof(seconds_bits));
    ++entry.served[{fp.digest, seconds_bits}];
  }

  struct Outcome {
    int64_t signatures = 0;
    int64_t mismatches = 0;  // Served ops, plus traced reference plans, that disagreed.
    Quality quality;
  };

  // Plans every recorded request in-process (PlanBatch), re-encodes the reference with
  // each served fingerprint's planning time, and compares digests; prices the pool.
  // While the tracer records, each priced request is also planned layer by layer, and
  // that plan must equal PlanBatch's bit for bit: this gives every workload's traced run
  // the planner's per-layer times on its own inputs, even where its ops plan nothing.
  Outcome Verify(const Env& env) {
    std::vector<const Entry*> ordered;
    for (const auto& [signature, entry] : entries_) {
      ordered.push_back(&entry);
    }
    std::sort(ordered.begin(), ordered.end(), [](const Entry* a, const Entry* b) {
      return std::make_pair(a->request.signature.hi, a->request.signature.lo) <
             std::make_pair(b->request.signature.hi, b->request.signature.lo);
    });
    struct Result {
      int64_t mismatches = 0;
      double iter_ms = 0.0, exposed_ms = 0.0, comm_mb = 0.0, imbalance = 0.0;
      double mlm_iter_ms = 0.0, mlm_exposed_ms = 0.0;
    };
    ThreadPool pool(kUntimedThreads);
    std::vector<std::future<Result>> results;
    const ModelSpec model = ModelSpec::Gpt8B();
    for (const Entry* entry : ordered) {
      results.push_back(pool.Submit([entry, &env, &model] {
        const Request& request = entry->request;
        Result result;
        ScopedSpan root("reference", -1);
        std::vector<SequenceMask> masks;
        {
          ScopedSpan span("masks.build", -1);
          masks = BuildBatchMasks(request.mask, request.seqlens);
        }
        BatchPlan reference = PlanBatch(request.seqlens, masks, env.cluster, env.planner);
        if (Tracer().enabled() && entry->priced) {
          bool valid = false;
          BatchPlan layered = TracedPlanBatch(env, request.seqlens, masks, -1, &valid);
          layered.stats.planning_seconds = reference.stats.planning_seconds;
          if (!valid || PlanStore::EncodeRecord(request.signature, layered) !=
                            PlanStore::EncodeRecord(request.signature, reference)) {
            ++result.mismatches;
          }
        }
        for (const auto& [key, ops] : entry->served) {
          std::memcpy(&reference.stats.planning_seconds, &key.second, sizeof(double));
          std::string record;
          {
            ScopedSpan span("codec.record_encode", -1);
            record = PlanStore::EncodeRecord(request.signature, reference);
          }
          if (Digest(record) != key.first) {
            result.mismatches += ops;
          }
        }
        if (entry->priced) {
          IterationBreakdown iteration;
          {
            ScopedSpan span("sim.price", -1);
            iteration = ModelIteration(model, env.cluster, reference);
          }
          result.iter_ms = iteration.Total() * 1e3;
          result.exposed_ms = iteration.attn_exposed_comm * 1e3;
          result.comm_mb = static_cast<double>(reference.stats.total_comm_bytes) * 1e-6;
          result.imbalance = reference.stats.max_device_flops /
                             (reference.stats.total_flops / reference.num_devices());
          const BaselineResult mlm =
              PlanBaseline(BaselineKind::kTransformerEngine, request.seqlens, request.mask,
                           env.cluster, env.planner);
          const IterationBreakdown mlm_iteration = ModelIteration(model, env.cluster, mlm.plan);
          result.mlm_iter_ms = mlm_iteration.Total() * 1e3;
          result.mlm_exposed_ms = mlm_iteration.attn_exposed_comm * 1e3;
        }
        return result;
      }));
    }
    Outcome outcome;
    outcome.signatures = static_cast<int64_t>(ordered.size());
    double mlm_iter_ms = 0.0, mlm_exposed_ms = 0.0;
    Quality& q = outcome.quality;
    for (size_t i = 0; i < results.size(); ++i) {
      const Result result = results[i].get();
      outcome.mismatches += result.mismatches;
      if (ordered[i]->priced) {
        ++q.plans;
        q.sim_iter_ms += result.iter_ms;
        q.sim_exposed_comm_ms += result.exposed_ms;
        q.plan_comm_mb += result.comm_mb;
        q.plan_imbalance += result.imbalance;
        mlm_iter_ms += result.mlm_iter_ms;
        mlm_exposed_ms += result.mlm_exposed_ms;
      }
    }
    q.sim_iter_vs_mlm = Ratio(q.sim_iter_ms, mlm_iter_ms);
    q.sim_exposed_comm_vs_mlm = Ratio(q.sim_exposed_comm_ms, mlm_exposed_ms);
    if (q.plans > 0) {
      const double n = static_cast<double>(q.plans);
      q.sim_iter_ms /= n;
      q.sim_exposed_comm_ms /= n;
      q.plan_comm_mb /= n;
      q.plan_imbalance /= n;
    }
    return outcome;
  }

 private:
  struct Entry {
    Request request;
    bool priced = false;
    std::map<std::pair<uint64_t, uint64_t>, int64_t> served;  // (digest, seconds) -> ops.
  };
  std::mutex mu_;
  std::unordered_map<PlanSignature, Entry, PlanSignatureHash> entries_;
};

// ---- Op accounting ----------------------------------------------------------------

struct OpLog {
  int64_t start_ns = 0;            // When the loop started.
  int64_t end_ns = 0;              // When its last timed op completed.
  int64_t probe_ns = 0;            // Time in between spent on the speed probe.
  std::vector<double> latency_ms;  // Per timed op.
  int64_t attempted = 0;
  int64_t failed = 0;
  double record_bytes = 0.0;  // Traced runs: record bytes handled, summed over ops.

  void Add(int64_t op_start_ns, int64_t op_end_ns, bool ok) {
    latency_ms.push_back(static_cast<double>(op_end_ns - op_start_ns) * 1e-6);
    end_ns = std::max(end_ns, op_end_ns);
    Count(ok);
  }
  // An untimed op.
  void Count(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
  void Merge(const OpLog& other) {
    if (other.start_ns != 0) {
      start_ns = start_ns == 0 ? other.start_ns : std::min(start_ns, other.start_ns);
    }
    end_ns = std::max(end_ns, other.end_ns);
    probe_ns += other.probe_ns;
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(), other.latency_ms.end());
    attempted += other.attempted;
    failed += other.failed;
    record_bytes += other.record_bytes;
  }
  double OpsPerSecond() const {
    const double wall_s = static_cast<double>(end_ns - start_ns - probe_ns) * 1e-9;
    return wall_s > 0.0 ? static_cast<double>(latency_ms.size()) / wall_s : 0.0;
  }
};

// Cumulative counters, read around a phase.
struct Counters {
  PlanCacheStats cache;
  int64_t plan_responses = 0;
  int64_t zero_copy_serves = 0;
  std::array<int64_t, metrics::kTracePhaseCount> phase_us{};
};

std::array<int64_t, metrics::kTracePhaseCount> ReadPhaseTotals() {
  std::array<int64_t, metrics::kTracePhaseCount> totals{};
  for (int i = 0; i < metrics::kTracePhaseCount; ++i) {
    totals[static_cast<size_t>(i)] =
        metrics::Registry::Global()
            .GetCounter("dcp_phase_us_total",
                        {{"phase", metrics::TracePhaseName(
                                       static_cast<metrics::TracePhase>(i))}},
                        "Cumulative request phase span time in microseconds")
            ->value();
  }
  return totals;
}

int64_t Deadline(double seconds) { return NowNs() + static_cast<int64_t>(seconds * 1e9); }

// ---- The traced mirror: one op through the layers' public functions ----------------

struct MirrorResult {
  bool ok = false;
  Fingerprint fp;
  size_t record_bytes = 0;
};

// Keeps the most recent plans alive as the Engine's LRU does (at its default capacity),
// so a traced op builds its masks in the same cold memory a real op does; a mirror that
// dropped each plan at once would reuse one cache-hot buffer and run measurably faster.
// Keep() releases the plan that falls out, as the Engine's cache insert does; traced ops
// time it as plan.release.
class ResidentPlans {
 public:
  void Keep(PlanHandle handle) {
    PlanHandle evicted;  // Destroyed after the lock is released.
    std::lock_guard<std::mutex> lock(mu_);
    plans_.push_back(std::move(handle));
    if (plans_.size() > capacity_) {
      evicted = std::move(plans_.front());
      plans_.pop_front();
    }
  }

 private:
  const size_t capacity_ = static_cast<size_t>(EngineOptions{}.plan_cache_capacity);
  std::mutex mu_;
  std::deque<PlanHandle> plans_;
};

// A cold Engine::Plan with store write-through, layer by layer.
MirrorResult TracedColdPlan(const Env& env, PlanStore& store, ResidentPlans& resident,
                            const Request& request, int64_t op) {
  MirrorResult result;
  PlanSignature signature;
  PlanHandle handle;
  {
    ScopedSpan root("op", op);
    {
      ScopedSpan span("signature.hash", op);
      signature =
          ComputePlanSignature(request.seqlens, request.mask, env.cluster, env.planner);
    }
    std::vector<SequenceMask> masks;
    {
      ScopedSpan span("masks.build", op);
      masks = BuildBatchMasks(request.mask, request.seqlens);
    }
    auto compiled = std::make_shared<CompiledPlan>();
    compiled->plan = TracedPlanBatch(env, request.seqlens, masks, op, &result.ok);
    compiled->signature = signature;
    compiled->masks = std::move(masks);
    handle = compiled;
    {
      ScopedSpan span("plan.release", op);
      resident.Keep(handle);
    }
    {
      ScopedSpan span("store.write", op);
      result.ok = store.Put(signature, handle->plan).ok() && result.ok;
    }
  }
  const std::string record = PlanStore::EncodeRecord(signature, handle->plan);
  result.ok = result.ok && signature == request.signature;
  result.fp = {Digest(record), handle->plan.stats.planning_seconds};
  result.record_bytes = record.size();
  return result;
}

std::optional<std::string> ReadFileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = fs::file_size(path, ec);
  if (ec) {
    return std::nullopt;
  }
  std::string bytes(static_cast<size_t>(size), '\0');
  std::ifstream in(path, std::ios::binary);
  if (!in.read(bytes.data(), static_cast<std::streamsize>(size))) {
    return std::nullopt;
  }
  return bytes;
}

// An Engine plan-store hit (cache miss -> record read -> decode -> mask rebuild), layer
// by layer. The record path is the documented store layout (core/plan_store.h).
MirrorResult TracedStoreLoad(const Env& env, const std::string& store_dir,
                             ResidentPlans& resident, const Request& request, int64_t op) {
  MirrorResult result;
  std::optional<std::string> bytes;
  {
    ScopedSpan root("op", op);
    PlanSignature signature;
    {
      ScopedSpan span("signature.hash", op);
      signature =
          ComputePlanSignature(request.seqlens, request.mask, env.cluster, env.planner);
    }
    {
      ScopedSpan span("store.file_read", op);
      bytes = ReadFileBytes(store_dir + "/" + signature.ToHex() + ".dcpplan");
    }
    if (!bytes.has_value()) {
      return result;
    }
    std::optional<StatusOr<std::pair<PlanSignature, BatchPlan>>> record;
    {
      ScopedSpan span("codec.record_decode", op);
      record.emplace(PlanStore::DecodeRecord(*bytes));
    }
    std::vector<SequenceMask> masks;
    {
      ScopedSpan span("masks.build", op);
      masks = BuildBatchMasks(request.mask, request.seqlens);
    }
    if (!record->ok() || !(record->value().first == signature) ||
        !(signature == request.signature) || masks.size() != request.seqlens.size()) {
      return result;
    }
    auto compiled = std::make_shared<CompiledPlan>();
    compiled->signature = signature;
    compiled->plan = std::move(record->value().second);
    compiled->masks = std::move(masks);
    result.ok = true;
    result.fp.planning_seconds = compiled->plan.stats.planning_seconds;
    ScopedSpan span("plan.release", op);
    resident.Keep(std::move(compiled));
  }
  result.fp.digest = Digest(*bytes);
  result.record_bytes = bytes->size();
  return result;
}

// One PlanClient::Plan RPC with the client cache off, layer by layer, on a raw socket.
MirrorResult TracedRemotePlan(Socket& socket, const Request& request, int64_t op,
                              PlanServeSource* source) {
  MirrorResult result;
  std::optional<StatusOr<PlanServiceResponse>> response;
  // Released after the op, as a PlanClient caller releases the handle it was given.
  auto compiled = std::make_shared<CompiledPlan>();
  {
    ScopedSpan root("op", op);
    {
      ScopedSpan span("signature.hash", op);
      (void)PlanRequestCacheKey(kTenant, request.seqlens, request.mask, 0);
    }
    std::string payload;
    {
      ScopedSpan span("client.request_encode", op);
      PlanServiceRequest wire;
      wire.tenant = kTenant;
      wire.seqlens = request.seqlens;
      wire.mask_spec = request.mask;
      wire.trace_id = metrics::NextTraceId();
      payload = SerializePlanServiceRequest(wire);
    }
    Status sent = Status::Ok();
    {
      ScopedSpan span("transport.send", op);
      sent = WriteFrame(socket, FrameType::kPlanRequest, payload);
    }
    std::optional<StatusOr<Frame>> frame;
    {
      ScopedSpan span("transport.wait", op);
      if (sent.ok()) {
        frame.emplace(ReadFrame(socket));
      }
    }
    if (!frame.has_value() || !frame->ok() ||
        frame->value().type != FrameType::kPlanResponse) {
      return result;
    }
    {
      ScopedSpan span("client.response_decode", op);
      response.emplace(DeserializePlanServiceResponse(frame->value().payload));
    }
    if (!response->ok() || response->value().code != StatusCode::kOk) {
      return result;
    }
    std::optional<StatusOr<std::pair<PlanSignature, BatchPlan>>> record;
    {
      ScopedSpan span("client.record_decode", op);
      record.emplace(PlanStore::DecodeRecord(response->value().record));
    }
    PlanSignature header;
    header.lo = response->value().signature_lo;
    header.hi = response->value().signature_hi;
    if (!record->ok() || !(record->value().first == header) ||
        !(header == request.signature)) {
      return result;
    }
    {
      ScopedSpan span("client.mask_build", op);
      compiled->masks = BuildBatchMasks(request.mask, request.seqlens);
    }
    compiled->signature = header;
    compiled->plan = std::move(record->value().second);
    *source = response->value().source;
    result.ok = compiled->masks.size() == request.seqlens.size();
    result.fp.planning_seconds = compiled->plan.stats.planning_seconds;
  }
  result.fp.digest = Digest(response->value().record);
  result.record_bytes = response->value().record.size();
  return result;
}

// Drives jobs the way DcpDataLoader drives its planner: round-robin over the masks, each
// with kLookahead + 1 jobs in flight on `pool`; the consumer waits on the front job of
// the next mask in turn. Runs until the deadline, then drains what is in flight.
OpLog RunLookaheadMirror(ThreadPool& pool, size_t masks,
                         const std::function<Request(size_t)>& next,
                         const std::function<MirrorResult(const Request&, int64_t)>& job,
                         int64_t deadline_ns, Checker& checker) {
  struct Slot {
    Request request;
    int64_t op = 0;
    std::future<MirrorResult> result;
  };
  std::vector<std::deque<Slot>> queues(masks);
  int64_t next_op = 0;
  const auto enqueue = [&](size_t m) {
    Slot slot;
    slot.request = next(m);
    slot.op = next_op++;
    slot.result = pool.Submit(
        [&job, request = slot.request, op = slot.op] { return job(request, op); });
    queues[m].push_back(std::move(slot));
  };
  for (size_t m = 0; m < masks; ++m) {
    for (int k = 0; k <= kLookahead; ++k) {
      enqueue(m);
    }
  }
  OpLog log;
  const auto consume = [&](Slot& slot, bool timed) {
    const int64_t start = NowNs();
    MirrorResult result;
    {
      ScopedSpan wait("loader.wait", slot.op);
      result = slot.result.get();
    }
    if (timed) {
      log.Add(start, NowNs(), result.ok);
    } else {
      log.Count(result.ok);
    }
    log.record_bytes += static_cast<double>(result.record_bytes);
    checker.Record(slot.request, result.fp, false);
  };
  log.start_ns = NowNs();
  for (size_t m = 0; NowNs() < deadline_ns; m = (m + 1) % masks) {
    Slot slot = std::move(queues[m].front());
    queues[m].pop_front();
    enqueue(m);
    consume(slot, true);
  }
  for (auto& queue : queues) {
    for (Slot& slot : queue) {
      consume(slot, false);
    }
  }
  return log;
}

// ---- Workloads ----------------------------------------------------------------------

class Workload {
 public:
  explicit Workload(Env& env) : env_(env) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Builds the system under test (timed, kSetupRepeats times; Teardown between).
  virtual void Setup() = 0;
  virtual void Teardown() = 0;
  // Untimed pass serving every verified input once; its plans are checked bit for bit
  // afterwards.
  virtual void VerifyPass(OpLog* log) = 0;
  // The closed loop through the public composite API, until the deadline.
  virtual OpLog Run(double seconds) = 0;
  // The same loop, each op performed layer by layer with spans.
  virtual OpLog RunTraced(double seconds) = 0;
  // Untimed, after the window: serves the reference set through the system under test;
  // those plans are checked bit for bit and priced.
  virtual void ServeReference(const std::vector<Request>& requests, OpLog* log) = 0;
  virtual Counters Read() const = 0;
  virtual bool has_loader() const = 0;

  Checker& checker() { return checker_; }

 protected:
  void Check(const Request& request, const PlanHandle& handle, bool priced) {
    checker_.Record(request, FingerprintOf(handle->signature, handle->plan), priced);
  }

  void ServeThroughEngine(Engine& engine, const std::vector<Request>& requests, OpLog* log) {
    for (const Request& request : requests) {
      StatusOr<PlanHandle> handle = engine.Plan(request.seqlens, request.mask);
      const bool ok = handle.ok() && Answers(handle.value(), request, env_);
      log->Count(ok);
      if (ok) {
        Check(request, handle.value(), true);
      }
    }
  }

  Env& env_;
  Checker checker_;
};

// Distinct seeded batches for every mask, planned by one shared Engine through one
// DcpDataLoader per mask with zero model time: the planner (and store writes) carry the
// load.
class TrainCold final : public Workload {
 public:
  using Workload::Workload;
  ~TrainCold() override { Teardown(); }

  // Set-up runs until every loader has handed out its first plan: a training job's
  // time to its first iteration. That time depends on the first batches, so each repeat
  // starts the loaders on new batches and the median is not set by one draw of four.
  void Setup() override {
    EngineOptions options;
    options.planner = env_.planner;
    options.planner_threads = kPlannerThreads;
    options.plan_store_path = env_.Path("cold-store-" + std::to_string(++generation_));
    engine_ = std::make_shared<Engine>(env_.cluster, options);
    for (size_t m = 0; m < NumMasks(); ++m) {
      const uint64_t seed =
          SubSeed(env_.seed, Stream::kCold, static_cast<uint64_t>(generation_) * NumMasks() + m);
      loaders_.push_back(std::make_unique<DcpDataLoader>(
          RequestStream::MakeBatchStream(seed), MaskAt(m), engine_, kLookahead));
      expected_.emplace_back(env_, seed, MaskAt(m));
    }
    OpLog first;
    for (size_t m = 0; m < NumMasks(); ++m) {
      Op(m, &first, false);
    }
    if (first.failed > 0) {
      Die("train_cold setup: a first plan did not answer its batch");
    }
  }

  void Teardown() override {
    loaders_.clear();
    expected_.clear();
    if (engine_ != nullptr) {
      const std::string dir = engine_->options().plan_store_path;
      engine_.reset();
      fs::remove_all(dir);
    }
  }

  void VerifyPass(OpLog* log) override {
    const int ops = env_.sizing.cold_verify_per_mask * static_cast<int>(NumMasks());
    for (int i = 0; i < ops; ++i) {
      Op(static_cast<size_t>(i) % NumMasks(), log, true);
    }
  }

  // Every timed op is a first serve; a seeded sample of them is checked after the run.
  OpLog Run(double seconds) override {
    OpLog log;
    const int64_t deadline = Deadline(seconds);
    log.start_ns = NowNs();
    for (size_t m = 0; NowNs() < deadline; m = (m + 1) % NumMasks()) {
      log.probe_ns += env_.probe.MaybeRun();
      Op(m, &log, SubSeed(env_.seed, Stream::kColdCheck, timed_ops_++) % kColdCheckEvery == 0);
    }
    return log;
  }

  OpLog RunTraced(double seconds) override {
    const std::string dir = env_.Path("cold-mirror-store");
    StatusOr<std::unique_ptr<PlanStore>> store = PlanStore::Open(dir);
    CheckOk(store.status(), "open mirror store");
    std::vector<RequestStream> streams;
    for (size_t m = 0; m < NumMasks(); ++m) {
      streams.emplace_back(env_, SubSeed(env_.seed, Stream::kColdMirror, m), MaskAt(m));
    }
    PlanStore& mirror_store = *store.value();
    ResidentPlans resident;
    OpLog log;
    {
      ThreadPool pool(kPlannerThreads);
      log = RunLookaheadMirror(
          pool, NumMasks(), [&](size_t m) { return streams[m].Next(); },
          [&](const Request& request, int64_t op) {
            return TracedColdPlan(env_, mirror_store, resident, request, op);
          },
          Deadline(seconds), checker_);
    }
    fs::remove_all(dir);
    return log;
  }

  void ServeReference(const std::vector<Request>& requests, OpLog* log) override {
    ServeThroughEngine(*engine_, requests, log);
  }

  Counters Read() const override {
    Counters counters;
    counters.cache = engine_->cache_stats();
    return counters;
  }
  bool has_loader() const override { return true; }

 private:
  void Op(size_t m, OpLog* log, bool check) {
    const Request request = expected_[m].Next();
    const int64_t start = NowNs();
    const PlannedIteration iteration = loaders_[m]->Next();
    const int64_t end = NowNs();
    const bool ok =
        iteration.batch.seqlens == request.seqlens && Answers(iteration.handle, request, env_);
    log->Add(start, end, ok);
    if (ok && check) {
      Check(request, iteration.handle, false);
    }
  }

  uint64_t timed_ops_ = 0;
  int generation_ = 0;
  std::shared_ptr<Engine> engine_;
  std::vector<std::unique_ptr<DcpDataLoader>> loaders_;
  std::vector<RequestStream> expected_;  // The loaders' batches, generated alongside.
};

// A store written once per process by a separate Engine (untimed, like the inputs), then
// replayed epoch after epoch in the same seeded order by an Engine whose 64-entry cache
// is far smaller than the working set: every op is a plan-store read, and the planner
// does nothing.
class TrainReplay final : public Workload {
 public:
  explicit TrainReplay(Env& env) : Workload(env), store_dir_(env.Path("replay-store")) {
    // kLookahead + 1 extra batches per mask: the loaders read that far past the end of
    // an epoch, and those reads must be store hits too.
    const int per_mask = env.sizing.replay_per_mask + kLookahead + 1;
    for (size_t m = 0; m < NumMasks(); ++m) {
      RequestStream stream(env, SubSeed(env.seed, Stream::kReplay, m), MaskAt(m));
      batches_.emplace_back();
      for (int i = 0; i < per_mask; ++i) {
        batches_.back().push_back(stream.Next());
      }
    }
    EngineOptions options = Options();
    options.planner_threads = kUntimedThreads;
    Engine writer(env.cluster, options);
    std::vector<std::future<bool>> planned;
    for (const auto& mask_batches : batches_) {
      for (const Request& request : mask_batches) {
        planned.push_back(writer.pool().Submit([&writer, &request] {
          StatusOr<PlanHandle> handle = writer.Plan(request.seqlens, request.mask);
          return handle.ok() && handle.value()->signature == request.signature;
        }));
      }
    }
    for (auto& result : planned) {
      if (!result.get()) {
        Die("train_replay: planning into the store failed");
      }
    }
  }
  ~TrainReplay() override {
    Teardown();
    fs::remove_all(store_dir_);
  }

  // A replaying job's set-up: open an Engine over the store (which indexes it) and load
  // the batch each mask's epoch resumes at. A load's time depends on the batch, so each
  // repeat resumes one batch further on, and the median does not rest on one draw of
  // four.
  void Setup() override {
    engine_ = std::make_shared<Engine>(env_.cluster, Options());
    const size_t first = setups_++ % static_cast<size_t>(env_.sizing.replay_per_mask);
    for (const auto& mask_batches : batches_) {
      const Request& request = mask_batches[first];
      StatusOr<PlanHandle> handle = engine_->Plan(request.seqlens, request.mask);
      if (!handle.ok() || !Answers(handle.value(), request, env_)) {
        Die("train_replay setup: a first plan did not answer its batch");
      }
    }
  }

  void Teardown() override { engine_.reset(); }

  void VerifyPass(OpLog* log) override { Epoch(INT64_MAX, log, true); }

  OpLog Run(double seconds) override {
    OpLog log;
    const int64_t deadline = Deadline(seconds);
    log.start_ns = NowNs();
    while (NowNs() < deadline) {
      Epoch(deadline, &log, false);
    }
    return log;
  }

  OpLog RunTraced(double seconds) override {
    std::vector<size_t> cursor(NumMasks(), 0);
    const size_t per_epoch = static_cast<size_t>(env_.sizing.replay_per_mask);
    ResidentPlans resident;
    ThreadPool pool(kPlannerThreads);
    return RunLookaheadMirror(
        pool, NumMasks(),
        [&](size_t m) { return batches_[m][cursor[m]++ % per_epoch]; },
        [&](const Request& request, int64_t op) {
          return TracedStoreLoad(env_, store_dir_, resident, request, op);
        },
        Deadline(seconds), checker_);
  }

  // Reference inputs are not in the store: the Engine plans them.
  void ServeReference(const std::vector<Request>& requests, OpLog* log) override {
    ServeThroughEngine(*engine_, requests, log);
  }

  Counters Read() const override {
    Counters counters;
    counters.cache = engine_->cache_stats();
    return counters;
  }
  bool has_loader() const override { return true; }

 private:
  // One pass over the stored batches through fresh loaders (an epoch boundary: the
  // loaders restart their streams and refill their look-ahead windows).
  void Epoch(int64_t deadline, OpLog* log, bool verify) {
    std::vector<std::unique_ptr<DcpDataLoader>> loaders;
    for (size_t m = 0; m < NumMasks(); ++m) {
      loaders.push_back(std::make_unique<DcpDataLoader>(
          RequestStream::MakeBatchStream(SubSeed(env_.seed, Stream::kReplay, m)), MaskAt(m),
          engine_, kLookahead));
    }
    for (int i = 0; i < env_.sizing.replay_per_mask; ++i) {
      for (size_t m = 0; m < NumMasks(); ++m) {
        if (NowNs() >= deadline) {
          return;
        }
        if (!verify) {
          log->probe_ns += env_.probe.MaybeRun();
        }
        const Request& request = batches_[m][static_cast<size_t>(i)];
        const int64_t start = NowNs();
        const PlannedIteration iteration = loaders[m]->Next();
        const int64_t end = NowNs();
        const bool ok = iteration.batch.seqlens == request.seqlens &&
                        Answers(iteration.handle, request, env_);
        log->Add(start, end, ok);
        if (ok && verify) {
          Check(request, iteration.handle, false);
        }
      }
    }
  }

  EngineOptions Options() const {
    EngineOptions options;
    options.planner = env_.planner;
    options.planner_threads = kPlannerThreads;
    options.plan_store_path = store_dir_;
    return options;
  }

  const std::string store_dir_;
  std::vector<std::vector<Request>> batches_;  // Per mask.
  size_t setups_ = 0;
  std::shared_ptr<Engine> engine_;
};

// A loopback PlanServer (default options) whose tenant holds a warm pool of shapes for
// every mask, asked by one trainer rank: a PlanClient with no client cache, so every op
// is an RPC and every serve a server memory hit.
class RemoteWarm final : public Workload {
 public:
  explicit RemoteWarm(Env& env) : Workload(env) {
    for (size_t m = 0; m < NumMasks(); ++m) {
      RequestStream stream(env, SubSeed(env.seed, Stream::kPool, m), MaskAt(m));
      for (int i = 0; i < env.sizing.pool_per_mask; ++i) {
        pool_.push_back(stream.Next());
      }
    }
  }
  ~RemoteWarm() override { Teardown(); }

  void Setup() override {
    registry_ = std::make_shared<TenantRegistry>();
    EngineOptions options;
    options.planner = env_.planner;
    options.plan_cache_capacity = kTenantCacheCapacity;
    CheckOk(registry_->Register({kTenant, env_.cluster, options}), "register tenant");
    server_ = std::make_unique<PlanServer>(registry_, PlanServerOptions{});
    CheckOk(server_->Start(ServiceAddress::Tcp("127.0.0.1", 0)), "start plan server");
    client_ = Connect();
    for (const Request& request : pool_) {
      if (!client_->Plan(request.seqlens, request.mask).ok()) {
        Die("remote_warm setup: warming the pool failed");
      }
    }
  }

  void Teardown() override {
    client_.reset();
    if (server_ != nullptr) {
      server_->Stop();
    }
    server_.reset();
    registry_.reset();
  }

  void VerifyPass(OpLog* log) override {
    for (const Request& request : pool_) {
      if (PlanHandle handle = ClientOp(request, false, log)) {
        Check(request, handle, false);
      }
    }
  }

  // New shapes to the server: planned on its workers.
  void ServeReference(const std::vector<Request>& requests, OpLog* log) override {
    for (const Request& request : requests) {
      if (PlanHandle handle = ClientOp(request, true, log)) {
        Check(request, handle, true);
      }
    }
  }

  OpLog Run(double seconds) override {
    const int64_t deadline = Deadline(seconds);
    Rng rng(SubSeed(env_.seed, Stream::kPick, 0));
    OpLog log;
    log.start_ns = NowNs();
    while (NowNs() < deadline) {
      log.probe_ns += env_.probe.MaybeRun();
      ClientOp(pool_[rng.NextBounded(pool_.size())], false, &log);
    }
    return log;
  }

  OpLog RunTraced(double seconds) override {
    const int64_t deadline = Deadline(seconds);
    StatusOr<Socket> socket = ConnectSocket(server_->bound_address());
    CheckOk(socket.status(), "connect traced client");
    Rng rng(SubSeed(env_.seed, Stream::kPickMirror, 0));
    OpLog log;
    log.start_ns = NowNs();
    for (int64_t op = 0; NowNs() < deadline; ++op) {
      const Request& request = pool_[rng.NextBounded(pool_.size())];
      PlanServeSource source = PlanServeSource::kClientCache;
      const int64_t op_start = NowNs();
      const MirrorResult result = TracedRemotePlan(socket.value(), request, op, &source);
      log.Add(op_start, NowNs(), result.ok && ExpectedSource(source, false));
      log.record_bytes += static_cast<double>(result.record_bytes);
      checker_.Record(request, result.fp, false);
    }
    return log;
  }

  Counters Read() const override {
    Counters counters;
    counters.cache = registry_->Find(kTenant)->cache_stats();
    const PlanServerStats stats = server_->stats();
    counters.plan_responses = stats.plan_ok;
    counters.zero_copy_serves = stats.zero_copy_serves;
    counters.phase_us = ReadPhaseTotals();
    return counters;
  }
  bool has_loader() const override { return false; }

 private:
  std::unique_ptr<PlanClient> Connect() const {
    PlanClientOptions options;
    options.tenant = kTenant;
    options.cache_capacity = 0;
    StatusOr<std::unique_ptr<PlanClient>> client =
        PlanClient::Connect(server_->bound_address(), options);
    CheckOk(client.status(), "connect plan client");
    return std::move(client).value();
  }

  // Pool shapes are memory hits; a new shape is planned, unless it happens to repeat a
  // shape already planned (single-sequence batches at the length cap do).
  static bool ExpectedSource(PlanServeSource source, bool fresh) {
    return source == PlanServeSource::kMemoryCache ||
           (fresh && source == PlanServeSource::kPlanned);
  }

  // Returns the served plan when it passed the per-op checks, else null.
  PlanHandle ClientOp(const Request& request, bool fresh, OpLog* log) {
    const int64_t start = NowNs();
    StatusOr<PlanHandle> handle = client_->Plan(request.seqlens, request.mask);
    const int64_t end = NowNs();
    const bool ok = handle.ok() && Answers(handle.value(), request, env_) &&
                    ExpectedSource(client_->last_source(), fresh);
    log->Add(start, end, ok);
    return ok ? handle.value() : nullptr;
  }

  std::vector<Request> pool_;
  std::shared_ptr<TenantRegistry> registry_;
  std::unique_ptr<PlanServer> server_;
  std::unique_ptr<PlanClient> client_;
};

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"train_cold", "train_replay",
                                                 "remote_warm"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, Env& env) {
  if (name == "train_cold") return std::make_unique<TrainCold>(env);
  if (name == "train_replay") return std::make_unique<TrainReplay>(env);
  if (name == "remote_warm") return std::make_unique<RemoteWarm>(env);
  return nullptr;
}

// Confines every thread of the process to `cpus`; threads started later inherit the
// mask of the thread that starts them.
//
// Set-up and the timed loop run on one vCPU. The speed probe must run on the vCPU whose
// speed it stands for, and the hosts this was sized on change the speed of each vCPU on
// its own. One vCPU also keeps hand-offs steady: remote_warm passes every op across four
// threads (client, server IO loop, worker, IO loop, client), each busy for a fraction of
// a millisecond, and when the host is loaded a vCPU that went idle waits to be scheduled
// again; hand-offs between vCPUs made its throughput swing by 17% from run to run, on
// one vCPU by 7%.
void ConfineProcess(const cpu_set_t& cpus) {
  std::error_code ec;
  for (const fs::directory_entry& task : fs::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(std::stol(task.path().filename().string()));
    if (sched_setaffinity(tid, sizeof(cpus), &cpus) != 0 && errno != ESRCH) {
      Die("sched_setaffinity failed: " + std::string(std::strerror(errno)));
    }
  }
  if (ec) {
    Die("cannot list /proc/self/task: " + ec.message());
  }
}

// The last `count` CPUs of `allowed`.
cpu_set_t LastCpus(const cpu_set_t& allowed, int count) {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && count > 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &cpus);
      --count;
    }
  }
  return cpus;
}

// ---- Metrics and reporting -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::string workload;
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::string rollup;  // Traced runs: the per-layer self-time table.
};

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// The timed loop's peak resident set: set-up, the verification pass and train_replay's
// store writer leave freed memory in the allocator's arenas, by amounts that depend on
// how their threads interleaved. That is returned to the kernel and the kernel's
// high-water mark (VmHWM) reset before the loop, so the peak is the loop's own.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  if (!clear_refs) {
    Die("cannot reset the peak resident set through /proc/self/clear_refs");
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // Reported in kB.
    }
  }
  Die("no VmHWM in /proc/self/status");
}

// Layer metric -> the span whose mean self time per call it reports, scaled from ms.
struct LayerSpan {
  const char* metric;
  const char* span;
  double scale;
  const char* unit;
};

const std::vector<LayerSpan>& LayerSpans() {
  static const std::vector<LayerSpan> spans = {
      {"planner.block_gen_ms", "planner.block_gen", 1.0, "ms"},
      {"planner.hypergraph_build_ms", "planner.hypergraph_build", 1.0, "ms"},
      {"planner.coarsen_ms", "planner.coarsen", 1.0, "ms"},
      {"planner.initial_ms", "planner.initial", 1.0, "ms"},
      {"planner.refine_ms", "planner.refine", 1.0, "ms"},
      {"planner.place_other_ms", "planner.place", 1.0, "ms"},
      {"planner.schedule_ms", "planner.schedule", 1.0, "ms"},
      {"planner.compile_ms", "planner.compile", 1.0, "ms"},
      {"planner.validate_ms", "planner.validate", 1.0, "ms"},
      {"masks.build_ms", "masks.build", 1.0, "ms"},
      {"signature.hash_us", "signature.hash", 1e3, "us"},
      {"store.write_ms", "store.write", 1.0, "ms"},
      {"codec.record_encode_ms", "codec.record_encode", 1.0, "ms"},
      {"store.file_read_ms", "store.file_read", 1.0, "ms"},
      {"codec.record_decode_ms", "codec.record_decode", 1.0, "ms"},
      {"client.request_encode_us", "client.request_encode", 1e3, "us"},
      {"transport.send_us", "transport.send", 1e3, "us"},
      {"transport.wait_ms", "transport.wait", 1.0, "ms"},
      {"client.response_decode_us", "client.response_decode", 1e3, "us"},
      {"client.record_decode_ms", "client.record_decode", 1.0, "ms"},
      {"client.mask_build_ms", "client.mask_build", 1.0, "ms"},
      {"plan.release_ms", "plan.release", 1.0, "ms"},
      {"sim.price_ms", "sim.price", 1.0, "ms"},
  };
  return spans;
}

std::string FormatRollup(const std::string& workload, const SelfTimeRollup& rollup) {
  std::string out = "per-layer self time, " + workload + " (mean per traced op, " +
                    std::to_string(rollup.ops) + " ops)\n";
  const double ops = static_cast<double>(rollup.ops);
  const double op_ms = Ratio(rollup.op_wall_ms, ops);
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, total] : rollup.op_self_ms) {
    if (name != "op") {
      rows.emplace_back(Ratio(total, ops), name);
    }
  }
  std::sort(rows.rbegin(), rows.rend());
  char line[160];
  for (const auto& [ms, name] : rows) {
    std::snprintf(line, sizeof(line), "  %-28s %10.4f ms  %6.1f%%\n", name.c_str(), ms,
                  100.0 * Ratio(ms, op_ms));
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-28s %10.4f ms  %6.1f%%\n  %-28s %10.4f ms\n",
                "unattributed", Ratio(rollup.unattributed_ms, ops),
                100.0 * Ratio(rollup.unattributed_ms, rollup.op_wall_ms), "op wall", op_ms);
  out += line;
  return out;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string json_out;
  std::string trace_out;
  std::string work_dir = "dcpbench-work";
};

RunResult RunWorkload(const Options& options, const Sizing& sizing) {
  Env env;
  env.sizing = sizing;
  env.seed = options.seed;
  env.work_dir = options.work_dir + "/" + options.workload + "-" + std::to_string(getpid());
  fs::create_directories(env.work_dir);
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload, env);
  if (workload == nullptr) {
    Die("unknown workload '" + options.workload + "'");
  }
  // Set-up and the timed loops run on one vCPU (see ConfineProcess); the untimed checks
  // after them run on all the process may use.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    Die("sched_getaffinity failed");
  }
  ConfineProcess(LastCpus(allowed, 1));

  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  while (true) {
    env.probe.MaybeRun();
    const int64_t start = NowNs();
    workload->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    setup_total_s += setup_s.back();
    if (setup_s.size() >= kSetupMinRepeats && setup_total_s >= sizing.setup_min_seconds) {
      break;
    }
    workload->Teardown();
  }

  const double setup_median_s = Summarize(setup_s).p50;

  OpLog total;
  workload->VerifyPass(&total);

  RunResult result;
  result.workload = options.workload;
  std::vector<Metric>& m = result.metrics;
  OpLog plain, traced;
  Counters before, middle, after;
  if (!options.trace) {
    ResetPeakRss();
    const double cpu_start = CpuSeconds() - env.probe.cpu_seconds();
    const OpLog window = workload->Run(options.seconds);
    const double cpu_s = CpuSeconds() - env.probe.cpu_seconds() - cpu_start;
    total.Merge(window);
    const SampleSummary lat = Summarize(window.latency_ms);
    const double cpu_ms_per_op = Ratio(cpu_s * 1e3, static_cast<double>(lat.samples));
    // End-to-end times at the reference host's speed (see dcpbench_speed.h); the raw_
    // metrics are the same times as measured.
    const double slowdown = env.probe.Slowdown();
    m.push_back({"setup_s", setup_median_s / slowdown, "s"});
    m.push_back({"ops_per_s", window.OpsPerSecond() * slowdown, "ops/s"});
    m.push_back({"op_p50_ms", lat.p50 / slowdown, "ms"});
    m.push_back({"op_p99_ms", lat.p99 / slowdown, "ms"});
    m.push_back({"cpu_ms_per_op", cpu_ms_per_op / slowdown, "ms"});
    m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    m.push_back({"host_slowdown", slowdown, "ratio"});
    m.push_back({"raw_setup_s", setup_median_s, "s"});
    m.push_back({"raw_ops_per_s", window.OpsPerSecond(), "ops/s"});
    m.push_back({"raw_op_p50_ms", lat.p50, "ms"});
    m.push_back({"raw_cpu_ms_per_op", cpu_ms_per_op, "ms"});
    m.push_back({"op_samples", static_cast<double>(lat.samples), "count"});
    m.push_back({"op_p99_tail_samples", static_cast<double>(lat.beyond_p99), "count"});
    m.push_back({"probe_runs", static_cast<double>(env.probe.runs()), "count"});
    m.push_back({"probe_sort_ms", env.probe.mean_sort_ms(), "ms"});
    m.push_back({"probe_map_ms", env.probe.mean_map_ms(), "ms"});
  } else {
    // First half: the untraced loop, for the overhead baseline and the path counters.
    before = workload->Read();
    plain = workload->Run(options.seconds / 2);
    middle = workload->Read();
    // Second half: the same ops, layer by layer, with spans.
    Tracer().Clear();
    Tracer().Enable(true);
    traced = workload->RunTraced(options.seconds / 2);
    Tracer().Enable(false);
    after = workload->Read();
    total.Merge(plain);
    total.Merge(traced);
  }
  workload->ServeReference(ReferenceSet(env), &total);
  const bool has_loader = workload->has_loader();
  m.push_back({"setup_repeats", static_cast<double>(setup_s.size()), "count"});
  workload->Teardown();
  ConfineProcess(allowed);

  Tracer().Enable(options.trace);
  const Checker::Outcome outcome = workload->checker().Verify(env);
  Tracer().Enable(false);
  workload.reset();
  fs::remove_all(env.work_dir);

  const Quality& q = outcome.quality;
  m.push_back({"sim_iter_ms", q.sim_iter_ms, "ms"});
  m.push_back({"sim_exposed_comm_ms", q.sim_exposed_comm_ms, "ms"});
  m.push_back({"sim_iter_vs_mlm", q.sim_iter_vs_mlm, "ratio"});
  m.push_back({"sim_exposed_comm_vs_mlm", q.sim_exposed_comm_vs_mlm, "ratio"});
  m.push_back({"plan_comm_mb", q.plan_comm_mb, "MB"});
  m.push_back({"plan_imbalance", q.plan_imbalance, "ratio"});
  m.push_back({"quality_plans", static_cast<double>(q.plans), "count"});
  m.push_back({"verified_signatures", static_cast<double>(outcome.signatures), "count"});

  if (options.trace) {
    const std::vector<Span> spans = Tracer().Collect();
    const SelfTimeRollup rollup = RollUp(spans);
    for (const LayerSpan& layer : LayerSpans()) {
      m.push_back({layer.metric, rollup.MeanPerCall(layer.span) * layer.scale, layer.unit});
    }
    const int64_t lookups = (middle.cache.hits + middle.cache.misses) -
                            (before.cache.hits + before.cache.misses);
    m.push_back({"loader.wait_ms", has_loader ? Summarize(plain.latency_ms).mean : 0.0, "ms"});
    m.push_back({"engine.hit_ratio",
                 Ratio(static_cast<double>(middle.cache.hits - before.cache.hits),
                       static_cast<double>(lookups)),
                 "ratio"});
    m.push_back({"engine.store_hit_ratio",
                 Ratio(static_cast<double>(middle.cache.store_hits - before.cache.store_hits),
                       static_cast<double>(lookups)),
                 "ratio"});
    // Server phases of the traced half, per plan response; they lie inside
    // transport.wait.
    const double responses = static_cast<double>(after.plan_responses - middle.plan_responses);
    const auto phase_us = [&](metrics::TracePhase phase) {
      const size_t i = static_cast<size_t>(phase);
      return Ratio(static_cast<double>(after.phase_us[i] - middle.phase_us[i]), responses);
    };
    m.push_back({"server.queue_wait_us", phase_us(metrics::TracePhase::kQueueWait), "us"});
    m.push_back({"server.cache_probe_us", phase_us(metrics::TracePhase::kCacheProbe), "us"});
    m.push_back({"server.encode_us", phase_us(metrics::TracePhase::kEncode), "us"});
    m.push_back({"server.write_drain_us", phase_us(metrics::TracePhase::kWriteDrain), "us"});
    m.push_back({"server.plan_ms",
                 (phase_us(metrics::TracePhase::kPlanCoarsen) +
                  phase_us(metrics::TracePhase::kPlanInitial) +
                  phase_us(metrics::TracePhase::kPlanRefine) +
                  phase_us(metrics::TracePhase::kPlanOther)) *
                     1e-3,
                 "ms"});
    m.push_back({"server.zero_copy_ratio",
                 Ratio(static_cast<double>(after.zero_copy_serves - middle.zero_copy_serves),
                       responses),
                 "ratio"});
    m.push_back({"codec.record_kb",
                 Ratio(traced.record_bytes / 1024.0, static_cast<double>(traced.attempted)),
                 "KB"});
    const double ops = static_cast<double>(rollup.ops);
    m.push_back({"traced_op_ms", Ratio(rollup.op_wall_ms, ops), "ms"});
    m.push_back({"unattributed_ms", Ratio(rollup.unattributed_ms, ops), "ms"});
    m.push_back({"trace_overhead_ratio", Ratio(plain.OpsPerSecond(), traced.OpsPerSecond()),
                 "ratio"});
    m.push_back({"traced_op_samples", ops, "count"});
    result.rollup = FormatRollup(options.workload, rollup);
    if (!options.trace_out.empty() &&
        !WriteChromeTrace(options.trace_out, spans, "dcpbench " + options.workload)) {
      Die("cannot write " + options.trace_out);
    }
  }

  result.attempted = total.attempted;
  result.failed = total.failed + outcome.mismatches;
  m.push_back({"failed_ratio",
               Ratio(static_cast<double>(result.failed), static_cast<double>(result.attempted)),
               "ratio"});
  result.correct = result.failed == 0 && result.attempted > 0 && q.plans > 0;
  return result;
}

std::string ToJson(const Options& options, const RunResult& result) {
  std::string out = "{\"schema\": \"dcpbench.v1\", \"workload\": \"" + result.workload +
                    "\", \"seed\": " + std::to_string(options.seed) +
                    ", \"seconds\": " + std::to_string(options.seconds) +
                    ", \"trace\": " + (options.trace ? "true" : "false") +
                    ", \"correct\": " + (result.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(result.attempted) +
                    ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    out += (i == 0 ? "" : ", ");
    out += "\"" + metric.name + "\": {\"value\": " + value + ", \"unit\": \"" + metric.unit +
           "\"}";
  }
  return out + "}}";
}

void Print(const Options& options, const RunResult& result) {
  std::printf("dcpbench workload=%s seed=%llu seconds=%g trace=%d\n", result.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const Metric& metric : result.metrics) {
    std::printf("  %-28s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("  correct=%s attempted=%lld failed=%lld\n", result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  if (!result.rollup.empty()) {
    std::printf("%s", result.rollup.c_str());
  }
  std::fflush(stdout);
}

int Smoke(const Options& base) {
  Sizing sizing;
  sizing.setup_min_seconds = 0.0;
  sizing.reference_per_mask = 1;
  sizing.cold_verify_per_mask = 2;
  sizing.replay_per_mask = 24;  // Still more than the Engine cache holds.
  sizing.pool_per_mask = 2;
  bool all_correct = true;
  for (const std::string& name : WorkloadNames()) {
    Options options = base;
    options.workload = name;
    options.seconds = 0.6;
    options.trace = true;
    const RunResult result = RunWorkload(options, sizing);
    Print(options, result);
    all_correct = all_correct && result.correct;
  }
  std::printf("dcpbench smoke: %s\n", all_correct ? "OK" : "FAILED");
  return all_correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options options;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> std::optional<std::string> {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) {
        return arg.substr(prefix.size());
      }
      return std::nullopt;
    };
    char* end = nullptr;
    if (auto v = value("--workload")) {
      options.workload = *v;
    } else if (auto v = value("--seed")) {
      options.seed = std::strtoull(v->c_str(), &end, 10);
      if (v->empty() || *end != '\0') Die("bad --seed '" + *v + "'");
    } else if (auto v = value("--seconds")) {
      options.seconds = std::strtod(v->c_str(), &end);
      if (v->empty() || *end != '\0' || options.seconds <= 0) Die("bad --seconds '" + *v + "'");
    } else if (auto v = value("--json")) {
      options.json_out = *v;
    } else if (auto v = value("--trace-out")) {
      options.trace_out = *v;
    } else if (auto v = value("--work-dir")) {
      options.work_dir = *v;
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      Die("unknown argument '" + arg +
          "'\nusage: dcpbench --workload=NAME --seed=S [--seconds=10] [--trace] "
          "[--json=OUT] [--trace-out=FILE] [--work-dir=DIR] | --smoke");
    }
  }
  if (!smoke) {
    const std::vector<std::string>& known = WorkloadNames();
    if (std::find(known.begin(), known.end(), options.workload) == known.end()) {
      std::string names;
      for (const std::string& name : WorkloadNames()) names += " " + name;
      Die("--workload must be one of:" + names);
    }
    if (!options.trace_out.empty() && !options.trace) {
      Die("--trace-out needs --trace");
    }
  }
  // The partitioner's fan-out pool (see kHelperThreads), for the whole process.
  ThreadPool helpers(kHelperThreads);
  ScopedThreadPoolOverride use_helpers(&helpers);
  if (smoke) {
    return Smoke(options);
  }
  const RunResult result = RunWorkload(options, Sizing{});
  Print(options, result);
  if (!options.json_out.empty()) {
    std::ofstream out(options.json_out);
    out << ToJson(options, result) << "\n";
    if (!out) Die("cannot write " + options.json_out);
  }
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace dcp::bench

int main(int argc, char** argv) { return dcp::bench::Main(argc, argv); }
