#include "core/plan_signature.h"

#include <bit>
#include <cmath>
#include <cstdio>

#include "common/rng.h"

namespace dcp {
namespace {

// Group tags: every logical field group starts with one so that streams with the same
// payload bytes but different structure cannot collide by construction of the stream.
enum FieldTag : uint64_t {
  kTagVersion = 0xA0,
  kTagSeqlens,
  kTagMask,
  kTagCluster,
  kTagPlanner,
  kTagPartitionKnobs,
  kTagBlockSize,
  kTagTuneCandidates,
};

constexpr uint64_t kSignatureVersion = 1;

void HashMask(PlanSignatureBuilder& b, const MaskSpec& spec) {
  b.Add(kTagMask);
  b.Add(static_cast<uint64_t>(spec.kind));
  b.AddSigned(spec.sink_tokens);
  b.AddSigned(spec.window_tokens);
  b.AddSigned(spec.icl_block_tokens);
  b.AddSigned(spec.window_blocks);
  b.AddSigned(spec.sink_blocks);
  b.AddSigned(spec.test_blocks);
  b.AddSigned(spec.num_answers);
  b.AddDouble(spec.answer_fraction);
}

void HashCluster(PlanSignatureBuilder& b, const ClusterSpec& cluster) {
  // Topology shapes the plan; the cost parameters shape scheduling tie-breaks and the
  // simulator pricing AutoTune ranks candidates with, so all of them are identity.
  b.Add(kTagCluster);
  b.AddSigned(cluster.num_nodes);
  b.AddSigned(cluster.devices_per_node);
  b.AddDouble(cluster.device_tflops);
  b.AddDouble(cluster.dense_tflops);
  b.AddDouble(cluster.intra_node_gbps);
  b.AddDouble(cluster.node_nic_gbps);
  b.AddDouble(cluster.intra_latency_us);
  b.AddDouble(cluster.inter_latency_us);
  b.AddDouble(cluster.hbm_gbps);
  b.AddDouble(cluster.kernel_launch_us);
  b.AddDouble(cluster.comm_launch_us);
  b.AddDouble(cluster.attn_step_overhead_us);
  b.AddDouble(cluster.attn_bw_step_overhead_us);
}

// Everything in PlannerOptions except the block size, which the two public entry points
// treat differently (fixed value vs. candidate search).
void HashPlannerSansBlock(PlanSignatureBuilder& b, const PlannerOptions& options) {
  b.Add(kTagPlanner);
  b.AddSigned(options.num_groups);
  b.AddSigned(options.heads_per_group);
  b.AddSigned(options.head_dim);
  b.AddSigned(options.bytes_per_element);
  b.AddSigned(options.divisions);
  b.AddDouble(options.eps_inter);
  b.AddDouble(options.eps_intra);
  b.AddDouble(options.eps_data);
  b.AddBool(options.hierarchical);
  b.AddBool(options.use_multilevel);
  b.Add(options.seed);
  b.Add(kTagPartitionKnobs);
  b.AddSigned(options.partition_vcycles);
  b.AddSigned(options.partition_vcycle_iterations);
  b.AddSigned(options.partition_refinement_passes);
  b.AddSigned(options.partition_initial_tries);
  b.AddSigned(options.partition_coarsen_until_per_part);
  b.AddSigned(options.partition_coarsening_grain);
}

PlanSignatureBuilder HashCommon(std::span<const int64_t> seqlens,
                                const MaskSpec& mask_spec, const ClusterSpec& cluster,
                                const PlannerOptions& options) {
  PlanSignatureBuilder b;
  b.Add(kTagVersion);
  b.Add(kSignatureVersion);
  b.Add(kTagSeqlens);
  b.AddSpan(seqlens);
  HashMask(b, mask_spec);
  HashCluster(b, cluster);
  HashPlannerSansBlock(b, options);
  return b;
}

}  // namespace

void PlanSignatureBuilder::Add(uint64_t value) {
  lo_ = SplitMix64(lo_ ^ value);
  hi_ = SplitMix64(hi_ + (value * 0xff51afd7ed558ccdULL));
}

void PlanSignatureBuilder::AddDouble(double value) {
  // Semantically identical configs must hash identically, so canonicalize the bit
  // patterns NaN payloads and signed zero would otherwise leak into the digest: every
  // NaN (any payload, either sign) folds to the canonical quiet NaN, and -0.0 folds to
  // 0.0. Without this, a NaN cost-model field makes equal requests miss the plan cache.
  uint64_t bits;
  if (std::isnan(value)) {
    bits = 0x7ff8000000000000ULL;
  } else {
    if (value == 0.0) {
      value = 0.0;
    }
    bits = std::bit_cast<uint64_t>(value);
  }
  Add(bits);
}

void PlanSignatureBuilder::AddSpan(std::span<const int64_t> values) {
  Add(static_cast<uint64_t>(values.size()));
  for (int64_t v : values) {
    AddSigned(v);
  }
}

PlanSignature PlanSignatureBuilder::Finish() const {
  // One more mix round so trailing fields avalanche into both lanes, and keep the
  // all-zero digest reserved as the "no signature" sentinel.
  PlanSignature sig;
  sig.lo = SplitMix64(lo_ ^ hi_);
  sig.hi = SplitMix64(hi_ + 0x2545f4914f6cdd1dULL);
  if (sig.IsZero()) {
    sig.lo = 1;
  }
  return sig;
}

std::string PlanSignature::ToHex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx", static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf);
}

PlanSignature ComputePlanSignature(std::span<const int64_t> seqlens,
                                   const MaskSpec& mask_spec, const ClusterSpec& cluster,
                                   const PlannerOptions& options) {
  PlanSignatureBuilder b = HashCommon(seqlens, mask_spec, cluster, options);
  b.Add(kTagBlockSize);
  b.AddSigned(options.block_size);
  return b.Finish();
}

PlanSignature ComputeTuneSignature(std::span<const int64_t> seqlens,
                                   const MaskSpec& mask_spec, const ClusterSpec& cluster,
                                   const PlannerOptions& options,
                                   const std::vector<int64_t>& block_sizes) {
  PlanSignatureBuilder b = HashCommon(seqlens, mask_spec, cluster, options);
  b.Add(kTagTuneCandidates);
  b.AddSpan(block_sizes);
  return b.Finish();
}

}  // namespace dcp
