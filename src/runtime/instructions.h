// The DCP instruction set (paper §5): four instruction kinds operating on block buffers.
// Instructions are fixed-size headers; their work items (attention tiles, reductions,
// transfer blocks) live in per-device pools (DevicePlan). Execution plans built
// from these instructions are consumed by both the numeric executor (real tensor math)
// and the discrete-event simulator (timing) — the same plan, two backends.
#ifndef DCP_RUNTIME_INSTRUCTIONS_H_
#define DCP_RUNTIME_INSTRUCTIONS_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/status.h"
#include "common/types.h"
#include "runtime/layout.h"

namespace dcp {

// Buffer kinds a block reference can point into. Forward uses Q/KV/O/Acc; backward
// additionally uses the gradient and stats buffers.
enum class BufKind : uint8_t {
  kQ = 0,     // Query blocks (local + received remote).
  kKV,        // Key/value blocks (local + received remote).
  kO,         // Final normalized outputs (local chunks only).
  kAcc,       // Online-softmax accumulators: unnormalized O plus (m, l) stats.
  kDO,        // Incoming output gradients.
  kDQ,        // Query-gradient accumulators.
  kDKV,       // Key/value-gradient accumulators.
  kDelta,     // Per-(head, token) rowsum(dO * O), needed by the backward kernel.
  kNumKinds,
};
inline constexpr int kNumBufKinds = static_cast<int>(BufKind::kNumKinds);
std::string BufKindName(BufKind kind);

struct BlockRef {
  BufKind kind = BufKind::kQ;
  int32_t slot = 0;

  bool operator==(const BlockRef&) const = default;
};

enum class InstrKind : uint8_t {
  kBlockwiseAttention = 0,
  kBlockwiseReduction,
  kCommLaunch,
  kCommWait,
};
std::string InstrKindName(InstrKind kind);

// One attention tile: the q chunk x kv chunk of one sequence and head group, with the
// mask evaluated through the sequence's range pairs. It stores only what the planner
// decides: which tile, and the slots its q and kv chunks occupy on this device. Every
// per-q-chunk buffer shares the q slot and every per-kv-chunk buffer the kv slot, so the
// operands are derived (below), as are the token bounds (BatchLayout::ChunkBegin/End).
// `backward` items additionally read dO/delta and accumulate into dQ/dKV accumulators.
struct AttentionWorkItem {
  SeqId seq = 0;
  GroupId group = 0;
  ChunkId q_chunk = 0;
  ChunkId kv_chunk = 0;
  int32_t q_slot = 0;
  int32_t kv_slot = 0;
  bool full = false;  // Dense tile: kernel may skip mask checks.

  BlockRef q() const { return {BufKind::kQ, q_slot}; }
  BlockRef kv() const { return {BufKind::kKV, kv_slot}; }
  BlockRef acc() const { return {BufKind::kAcc, q_slot}; }
  // Backward-only operands (unused when the instruction's `backward` flag is false).
  BlockRef dout() const { return {BufKind::kDO, q_slot}; }
  BlockRef delta() const { return {BufKind::kDelta, q_slot}; }
  BlockRef dq() const { return {BufKind::kDQ, q_slot}; }
  BlockRef dkv() const { return {BufKind::kDKV, kv_slot}; }

  bool operator==(const AttentionWorkItem&) const = default;
};
static_assert(sizeof(AttentionWorkItem) <= 28, "tiles are the bulk of every plan");

enum class ReduceMode : uint8_t {
  kMergeSoftmax = 0,  // Merge a partial (U, m, l) accumulator into another.
  kFinalize,          // O = U / l from an accumulator into a kO block.
  kSum,               // Elementwise sum (gradient partials).
  kComputeDelta,      // delta = rowsum(dO * O) for one chunk.
};
std::string ReduceModeName(ReduceMode mode);

struct ReduceItem {
  ReduceMode mode = ReduceMode::kMergeSoftmax;
  BlockRef dst;
  BlockRef src0;
  BlockRef src1;          // kComputeDelta uses src0=dO, src1=O.
  int64_t token_count = 0;  // Valid tokens in the (possibly ragged) chunk.

  bool operator==(const ReduceItem&) const = default;
};

struct TransferBlock {
  BlockRef ref;
  Bytes bytes = 0;          // Wire size (training dtype).
  int64_t token_count = 0;  // Valid tokens, for numeric payload sizing.

  bool operator==(const TransferBlock&) const = default;
};

// Half-open [begin, end) index range into one of a DevicePlan's item pools.
struct ItemRange {
  uint32_t begin = 0;
  uint32_t end = 0;

  uint32_t size() const { return end - begin; }
  bool empty() const { return begin == end; }
  bool operator==(const ItemRange&) const = default;
};

// `range` of `pool` as a span (const when the pool is); aborts when out of bounds.
template <typename Pool>
auto PoolSlice(Pool& pool, ItemRange range) {
  DCP_CHECK(range.begin <= range.end && range.end <= pool.size())
      << "item range [" << range.begin << ", " << range.end << ") outside a pool of "
      << pool.size();
  return std::span(pool.data() + range.begin, range.size());
}

// An instruction is a fixed-size header: its items live in its DevicePlan's pools, and
// the three ranges say which. Any kind may carry items of any kind; the executor and the
// validator only read the items that match `kind`.
struct Instruction {
  InstrKind kind = InstrKind::kBlockwiseAttention;
  bool backward = false;  // kBlockwiseAttention: backward tiles.

  // kCommLaunch / kCommWait. A transfer is a matched (send, recv) CommLaunch pair sharing
  // `transfer_id`; CommWait blocks on that id.
  bool is_send = false;
  int32_t transfer_id = -1;
  DeviceId peer = kInvalidDevice;

  ItemRange attn_range;    // DevicePlan::attn_items (kBlockwiseAttention).
  ItemRange reduce_range;  // DevicePlan::reduce_items (kBlockwiseReduction).
  ItemRange block_range;   // DevicePlan::blocks (kCommLaunch).

  // Cost annotations for the simulator (numeric executor ignores them).
  Flops flops = 0.0;
  Bytes comm_bytes = 0;
  Bytes mem_bytes = 0;  // HBM traffic of tiles and reductions (memory-bound work).
  // Extra fixed host-side cost in seconds (e.g. TransformerEngine's per-step varlen
  // argument construction); added to the launch overhead by the simulator.
  double host_overhead = 0.0;

  bool operator==(const Instruction&) const = default;
};
static_assert(sizeof(Instruction) <= 80, "instructions are copied and decoded in bulk");

// Where a locally-owned data chunk lives in the device buffers, and which tokens it holds.
// Used to scatter model inputs into buffers and gather outputs back.
struct LocalChunk {
  SeqId seq = 0;
  ChunkId chunk = 0;
  GroupId group = 0;
  int32_t q_slot = 0;    // kQ (and same slot index in kO / kDQ / kDO / kDelta / kAcc).
  int32_t kv_slot = 0;   // kKV (and kDKV).

  bool operator==(const LocalChunk&) const = default;
};

// One device's program: two instruction streams over one set of item pools, so a plan
// is a few vectors per device rather than several per instruction — what a plan-store
// or RPC hit allocates when it decodes a plan and frees when it drops one.
//
// Pools hold items in canonical stream order — `instructions` first, then
// `backward_instructions` — so each instruction's range of a kind starts where the
// previous instruction's range of that kind ended, and the last one ends at the pool's
// size. ValidatePlan enforces this; the defaulted operator== relies on it, since two
// plans with equal items in different pool orders compare unequal. Build plans with
// Append and Add, which keep the order by construction.
struct DevicePlan {
  std::vector<Instruction> instructions;
  std::vector<Instruction> backward_instructions;
  std::array<int32_t, kNumBufKinds> num_slots = {};
  std::vector<LocalChunk> local_chunks;
  std::vector<AttentionWorkItem> attn_items;
  std::vector<ReduceItem> reduce_items;
  std::vector<TransferBlock> blocks;

  bool operator==(const DevicePlan&) const = default;

  // The items of `instr`, which must belong to this plan.
  std::span<const AttentionWorkItem> attn_items_of(const Instruction& instr) const {
    return PoolSlice(attn_items, instr.attn_range);
  }
  std::span<const ReduceItem> reduce_items_of(const Instruction& instr) const {
    return PoolSlice(reduce_items, instr.reduce_range);
  }
  std::span<const TransferBlock> blocks_of(const Instruction& instr) const {
    return PoolSlice(blocks, instr.block_range);
  }
  std::span<AttentionWorkItem> attn_items_of(const Instruction& instr) {
    return PoolSlice(attn_items, instr.attn_range);
  }

  // Appends a `kind` instruction to `stream` (this plan's `instructions` or
  // `backward_instructions`, forward first) with every range opened, empty, at its
  // pool's end. Give it items with Add before appending the next instruction.
  Instruction& Append(std::vector<Instruction>& stream, InstrKind kind);
  // Appends one item to `instr`, the instruction most recently appended.
  void Add(Instruction& instr, const AttentionWorkItem& item);
  void Add(Instruction& instr, const ReduceItem& item);
  void Add(Instruction& instr, const TransferBlock& block);
};

// Summary statistics the planner computes for a plan (used by benches and tests).
struct PlanStats {
  Bytes total_comm_bytes = 0;       // Forward, sum over transfers.
  Bytes inter_node_comm_bytes = 0;  // Forward, transfers crossing node boundaries.
  Bytes max_device_comm_bytes = 0;  // Max per-device send+recv volume (forward).
  Flops total_flops = 0.0;
  Flops max_device_flops = 0.0;
  // Memory balance (paper: data-block balance implies activation-memory balance): bytes of
  // locally-owned data blocks per device, max and min across devices.
  Bytes max_device_owned_bytes = 0;
  Bytes min_device_owned_bytes = 0;
  double planning_seconds = 0.0;
  double partition_cost = 0.0;  // Connectivity objective value at device level.

  bool operator==(const PlanStats&) const = default;
};

struct BatchPlan {
  BatchLayout layout;
  std::vector<DevicePlan> devices;
  std::vector<DeviceId> chunk_home;  // Per global chunk id: owning device.
  PlanStats stats;

  bool operator==(const BatchPlan&) const = default;

  int num_devices() const { return static_cast<int>(devices.size()); }
};

// Human-readable dump (debugging aid, also exercised in tests).
std::string PlanToString(const BatchPlan& plan, int max_instructions_per_device = 16);

// Compact byte-oriented plan encoding (paper §3.1: plans are serialized once by the
// planner and shipped to devices), the payload of every PlanStore record, which is also
// the planning service's wire format (core/plan_store.h; the service messages live in
// service/messages.h). Integers go through common/bytes.h, the codec every format
// shares. Exact for doubles (bit_cast, no decimal round-trip). Each device's items
// are stored as frame-of-reference columns (a base and a byte width per field; the
// layout is in instructions.cc). The decoder is bounds-checked end to end: a device's
// pool counts are bounded by the remaining payload before any pool is allocated, and a
// column's bytes before it is read; enum, flag and int32 ranges are checked once per
// column; a column header other than the one the encoder writes, and trailing bytes,
// are rejected — malformed bytes come back as a recoverable DATA_LOSS Status, never an
// abort, and bytes that decode re-encode to themselves.
std::string SerializePlanBinary(const BatchPlan& plan);
StatusOr<BatchPlan> DeserializePlanBinary(std::string_view bytes);
// Appends SerializePlanBinary's bytes to `w`, growing it once to hold them plus
// `trailer_bytes`: a container (a PlanStore record) encodes its payload in place and
// then appends its trailer without a copy or another reallocation.
void AppendPlanBinary(const BatchPlan& plan, ByteWriter& w, size_t trailer_bytes = 0);

}  // namespace dcp

#endif  // DCP_RUNTIME_INSTRUCTIONS_H_
