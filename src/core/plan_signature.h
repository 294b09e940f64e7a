// Canonical 128-bit fingerprints over everything that determines a compiled plan:
// sequence lengths, mask-spec parameters, block size, cluster topology + cost-model
// parameters, and every planner knob. Two requests with equal signatures produce
// bit-identical plans (the planner is deterministic for a fixed seed), so the Engine's
// compiled-plan cache and the executor's incremental prepare key on this value.
//
// The hash is a tagged field stream folded through the splitmix64 finalizer into two
// independent 64-bit lanes. It is stable within a process run — exactly the lifetime of
// the caches it keys — and every field carries a distinct tag, so reordered or omitted
// fields change the digest (e.g. two mask kinds whose parameter lists happen to encode
// the same bytes still hash apart through the kind tag).
#ifndef DCP_CORE_PLAN_SIGNATURE_H_
#define DCP_CORE_PLAN_SIGNATURE_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "core/planner.h"
#include "masks/mask_spec.h"
#include "runtime/cluster.h"

namespace dcp {

struct PlanSignature {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool IsZero() const { return lo == 0 && hi == 0; }
  bool operator==(const PlanSignature&) const = default;

  // 32 lowercase hex digits, hi lane first.
  std::string ToHex() const;
};

struct PlanSignatureHash {
  size_t operator()(const PlanSignature& sig) const {
    return static_cast<size_t>(sig.lo ^ (sig.hi * 0x9e3779b97f4a7c15ULL));
  }
};

// Incremental two-lane hasher. Field order is part of the canonical form: callers add
// fields in a fixed, documented order and prefix each logical group with a tag.
class PlanSignatureBuilder {
 public:
  void Add(uint64_t value);
  void AddSigned(int64_t value) { Add(static_cast<uint64_t>(value)); }
  void AddDouble(double value);
  void AddBool(bool value) { Add(value ? 1 : 0); }
  void AddSpan(std::span<const int64_t> values);

  PlanSignature Finish() const;

 private:
  uint64_t lo_ = 0x6463702d706c616eULL;  // "dcp-plan"
  uint64_t hi_ = 0x7369676e61747572ULL;  // "signatur"
};

// Full plan identity: seqlens + mask spec + cluster + all planner options (block size
// included). Equal signatures => PlanBatch returns bit-identical plans. Seqlens are a
// span so the service can hash straight out of a decoded request view without
// materializing a vector (std::vector converts implicitly).
PlanSignature ComputePlanSignature(std::span<const int64_t> seqlens,
                                   const MaskSpec& mask_spec, const ClusterSpec& cluster,
                                   const PlannerOptions& options);
// Braced-list convenience (std::span gains this constructor only in C++26).
inline PlanSignature ComputePlanSignature(std::initializer_list<int64_t> seqlens,
                                          const MaskSpec& mask_spec,
                                          const ClusterSpec& cluster,
                                          const PlannerOptions& options) {
  return ComputePlanSignature(std::span<const int64_t>(seqlens.begin(), seqlens.size()),
                              mask_spec, cluster, options);
}

// Block-size-search identity: like ComputePlanSignature but with the block size replaced
// by the candidate list, keying Engine::AutoTune's per-signature winning block size.
PlanSignature ComputeTuneSignature(std::span<const int64_t> seqlens,
                                   const MaskSpec& mask_spec, const ClusterSpec& cluster,
                                   const PlannerOptions& options,
                                   const std::vector<int64_t>& block_sizes);

}  // namespace dcp

#endif  // DCP_CORE_PLAN_SIGNATURE_H_
