#include "runtime/plan_validate.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "runtime/stream_progress.h"

namespace dcp {

std::string PlanValidation::Summary() const {
  if (ok) {
    return "plan valid";
  }
  std::ostringstream out;
  out << errors.size() << " error(s):";
  for (const std::string& error : errors) {
    out << "\n  " << error;
  }
  return out.str();
}

namespace {

struct TransferEnds {
  int sends = 0;
  int recvs = 0;
  size_t send_blocks = 0;
  size_t recv_blocks = 0;
  Bytes send_bytes = 0;
  Bytes recv_bytes = 0;
  DeviceId send_device = kInvalidDevice;
  DeviceId recv_device = kInvalidDevice;
  DeviceId send_peer = kInvalidDevice;
  DeviceId recv_peer = kInvalidDevice;
  int waits = 0;
};

// Tracks one pool while a device's streams are walked in order: each instruction's
// range must start where the previous one ended, and the last must end at the pool's
// size.
class PoolWalk {
 public:
  PoolWalk(const char* name, size_t pool_size, DeviceId d, PlanValidation& result)
      : name_(name), pool_size_(pool_size), device_(d), result_(result) {}

  // False when `range` is outside the pool, so its items must not be read.
  bool Step(ItemRange range) {
    if (range.begin > range.end || range.end > pool_size_) [[unlikely]] {
      Fail(range, /*outside=*/true);
      return false;
    }
    if (range.begin != next_) [[unlikely]] {
      Fail(range, /*outside=*/false);
    }
    next_ = range.end;
    return true;
  }

  void Finish() {
    if (ok_ && next_ != pool_size_) {
      result_.Fail(std::string(name_) + " pool on device " + std::to_string(device_) +
                   " holds " + std::to_string(pool_size_ - next_) +
                   " item(s) no instruction references");
    }
  }

 private:
  // Out of line: Step runs for every range, this only for a bad one.
  [[gnu::noinline]] void Fail(ItemRange range, bool outside) {
    ok_ = false;
    const std::string why =
        outside ? "is outside the pool of " + std::to_string(pool_size_)
                : std::string(range.begin < next_ ? "overlaps" : "leaves a gap after") +
                      " the previous instruction's range, which ended at " +
                      std::to_string(next_);
    result_.Fail(std::string(name_) + " range [" + std::to_string(range.begin) + ", " +
                 std::to_string(range.end) + ") on device " + std::to_string(device_) +
                 " " + why);
  }

  const char* name_;
  size_t pool_size_;
  DeviceId device_;
  PlanValidation& result_;
  size_t next_ = 0;
  bool ok_ = true;
};

// A set of 128-bit packed keys in one open-addressing table with at least twice as many
// slots as it will hold. It is sized by an item count the plan itself decoded (tiles,
// local chunks), never by a count derived from the layout, so a hostile layout cannot
// make validation allocate more than the plan's own bytes justify.
class KeySet {
 public:
  explicit KeySet(size_t max_items) : slots_(std::bit_ceil(2 * max_items + 2)) {}

  // Adds (hi, lo); false if it was already present. `hi` must have its top bit clear,
  // and at most `max_items` distinct keys may be added.
  bool Insert(uint64_t hi, uint64_t lo) {
    const size_t mask = slots_.size() - 1;
    uint64_t h = (hi * 0x9E3779B97F4A7C15ull) ^ lo;  // splitmix64's finalizer.
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    for (size_t i = static_cast<size_t>(h ^ (h >> 31)) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.hi == kEmpty) {
        slot = {hi, lo};
        ++size_;
        return true;
      }
      if (slot.hi == hi && slot.lo == lo) {
        return false;
      }
    }
  }
  size_t size() const { return size_; }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};  // No packed key has its top bit set.

  struct Slot {
    uint64_t hi = kEmpty;
    uint64_t lo = 0;
  };
  std::vector<Slot> slots_;
  size_t size_ = 0;
};

// The messages of the index and slot checks, built out of line: the checks run for every
// tile and block, their messages only on a failure.
[[gnu::noinline]] void FailIndex(PlanValidation& result, const char* what, int64_t index,
                                 int64_t count, DeviceId d) {
  result.Fail(std::string(what) + " " + std::to_string(index) + " out of [0, " +
              std::to_string(count) + ") on device " + std::to_string(d));
}

[[gnu::noinline]] void FailSlot(PlanValidation& result, const char* where, BlockRef ref,
                                int32_t count, DeviceId d) {
  result.Fail(std::string(where) + ": " + BufKindName(ref.kind) + " slot " +
              std::to_string(ref.slot) + " out of [0, " + std::to_string(count) +
              ") on device " + std::to_string(d));
}

[[gnu::noinline]] void FailTransferId(PlanValidation& result, int32_t id, size_t launches,
                                      DeviceId d) {
  result.Fail("transfer " + std::to_string(id) + " is outside [0, " +
              std::to_string(launches) + "), the plan's launch count, on device " +
              std::to_string(d));
}

// "(seq,chunk,group)".
std::string ChunkName(const LocalChunk& chunk) {
  return "(" + std::to_string(chunk.seq) + "," + std::to_string(chunk.chunk) + "," +
         std::to_string(chunk.group) + ")";
}

// Two non-negative int32 values in one word, top bit clear.
uint64_t Pack(int32_t high, int32_t low) {
  return (static_cast<uint64_t>(high) << 32) | static_cast<uint32_t>(low);
}

}  // namespace

PlanValidation ValidatePlan(const BatchPlan& plan) {
  PlanValidation result;
  const BatchLayout& layout = plan.layout;
  if (layout.block_size <= 0) {  // Every chunk count below divides by it.
    result.Fail("layout block_size " + std::to_string(layout.block_size) +
                " is not positive");
    return result;
  }

  // Chunk homes.
  std::vector<int> num_chunks(layout.seqlens.size());  // Per sequence.
  size_t expected_chunks = 0;
  for (SeqId s = 0; s < layout.num_sequences(); ++s) {
    num_chunks[static_cast<size_t>(s)] = layout.NumChunks(s);
    expected_chunks += static_cast<size_t>(num_chunks[static_cast<size_t>(s)]);
  }
  if (plan.chunk_home.size() != expected_chunks) {
    result.Fail("chunk_home size " + std::to_string(plan.chunk_home.size()) +
                " != expected " + std::to_string(expected_chunks));
  }
  for (DeviceId home : plan.chunk_home) {
    if (home < 0 || home >= plan.num_devices()) {
      result.Fail("chunk home device " + std::to_string(home) + " out of range");
      break;
    }
  }

  // Local chunks name real (chunk, group) pairs and slots, and partition the batch.
  size_t local_count = 0;
  // A bound on the distinct forward tiles: each device's forward stream only reaches its
  // pool below the highest end of its forward attention ranges.
  size_t forward_tile_bound = 0;
  for (const DevicePlan& dev : plan.devices) {
    local_count += dev.local_chunks.size();
    uint32_t forward_end = 0;
    for (const Instruction& instr : dev.instructions) {
      forward_end = std::max(forward_end, instr.attn_range.end);
    }
    forward_tile_bound += std::min<size_t>(forward_end, dev.attn_items.size());
  }
  KeySet owned(local_count);
  for (int d = 0; d < plan.num_devices(); ++d) {
    const DevicePlan& dev = plan.devices[static_cast<size_t>(d)];
    // One error when `slot` is outside the slot count of any of `kinds`.
    auto check_slot = [&](const LocalChunk& chunk, int32_t slot,
                          std::initializer_list<BufKind> kinds, const char* side) {
      for (BufKind kind : kinds) {
        const int32_t count = dev.num_slots[static_cast<size_t>(kind)];
        if (slot < 0 || slot >= count) {
          FailSlot(result, ("local chunk " + ChunkName(chunk) + " " + side).c_str(),
                   {kind, slot}, count, d);
          return;
        }
      }
    };
    for (const LocalChunk& chunk : dev.local_chunks) {
      if (chunk.seq < 0 || chunk.seq >= layout.num_sequences() || chunk.group < 0 ||
          chunk.group >= layout.num_groups || chunk.chunk < 0 ||
          chunk.chunk >= num_chunks[static_cast<size_t>(chunk.seq)]) {
        result.Fail("local chunk " + ChunkName(chunk) + " on device " + std::to_string(d) +
                    " is outside the layout");
        continue;
      }
      check_slot(chunk, chunk.q_slot,
                 {BufKind::kQ, BufKind::kO, BufKind::kAcc, BufKind::kDO, BufKind::kDelta,
                  BufKind::kDQ},
                 "q");
      check_slot(chunk, chunk.kv_slot, {BufKind::kKV, BufKind::kDKV}, "kv");
      if (!owned.Insert(Pack(chunk.seq, chunk.group), static_cast<uint64_t>(chunk.chunk))) {
        result.Fail("chunk " + ChunkName(chunk) + " owned by multiple devices");
      }
    }
  }
  if (owned.size() != expected_chunks * static_cast<size_t>(layout.num_groups)) {
    result.Fail("local chunks cover " + std::to_string(owned.size()) + " of " +
                std::to_string(expected_chunks * static_cast<size_t>(layout.num_groups)) +
                " (chunk, group) pairs");
  }

  // Instruction-level checks. Transfer ids index a dense table: a valid plan numbers
  // its transfers below its launch count.
  const size_t launches = CountLaunches(plan);
  std::vector<TransferEnds> transfers(launches);
  KeySet forward_tiles(forward_tile_bound);
  for (int d = 0; d < plan.num_devices(); ++d) {
    const DevicePlan& dev = plan.devices[static_cast<size_t>(d)];
    // False (and one error) when `index` is outside [0, count).
    auto check_index = [&](int64_t index, int64_t count, const char* what) {
      if (index < 0 || index >= count) [[unlikely]] {
        FailIndex(result, what, index, count, d);
        return false;
      }
      return true;
    };
    auto check_ref = [&](const BlockRef& ref, const char* where) {
      const int32_t count = dev.num_slots[static_cast<size_t>(ref.kind)];
      if (ref.slot < 0 || ref.slot >= count) [[unlikely]] {
        FailSlot(result, where, ref, count, d);
      }
    };
    // The transfer `instr` names, or null (and one error) when its id is not below the
    // launch count.
    auto transfer_of = [&](const Instruction& instr) -> TransferEnds* {
      if (instr.transfer_id < 0 || static_cast<size_t>(instr.transfer_id) >= launches)
          [[unlikely]] {
        FailTransferId(result, instr.transfer_id, launches, d);
        return nullptr;
      }
      return &transfers[static_cast<size_t>(instr.transfer_id)];
    };
    PoolWalk attn_walk("attention item", dev.attn_items.size(), d, result);
    PoolWalk reduce_walk("reduce item", dev.reduce_items.size(), d, result);
    PoolWalk block_walk("transfer block", dev.blocks.size(), d, result);
    bool forward_stream = true;
    for (const auto* stream : {&dev.instructions, &dev.backward_instructions}) {
      for (const Instruction& instr : *stream) {
        // Every range is walked, whatever the kind.
        const bool attn_ok = attn_walk.Step(instr.attn_range);
        const bool reduce_ok = reduce_walk.Step(instr.reduce_range);
        const bool blocks_ok = block_walk.Step(instr.block_range);
        if (!(attn_ok && reduce_ok && blocks_ok)) {
          continue;
        }
        switch (instr.kind) {
          case InstrKind::kBlockwiseAttention:
            for (const AttentionWorkItem& item : dev.attn_items_of(instr)) {
              // The tile must name a real (sequence, group, chunk, chunk) before its
              // token bounds and mask can be derived from it.
              if (!check_index(item.seq, layout.num_sequences(), "attention seq") ||
                  !check_index(item.group, layout.num_groups, "attention group")) {
                continue;
              }
              const int seq_chunks = num_chunks[static_cast<size_t>(item.seq)];
              if (!check_index(item.q_chunk, seq_chunks, "attention q chunk") ||
                  !check_index(item.kv_chunk, seq_chunks, "attention kv chunk")) {
                continue;
              }
              check_ref(item.q(), "attention q");
              check_ref(item.kv(), "attention kv");
              check_ref(item.acc(), "attention acc");
              if (instr.backward) {
                check_ref(item.dout(), "attention dout");
                check_ref(item.delta(), "attention delta");
                check_ref(item.dq(), "attention dq");
                check_ref(item.dkv(), "attention dkv");
              }
              if (forward_stream && !instr.backward &&
                  !forward_tiles.Insert(Pack(item.seq, item.group),
                                        Pack(item.q_chunk, item.kv_chunk))) {
                result.Fail("tile (seq " + std::to_string(item.seq) + ", group " +
                            std::to_string(item.group) + ", q chunk " +
                            std::to_string(item.q_chunk) + ", kv chunk " +
                            std::to_string(item.kv_chunk) + ") computed twice");
              }
            }
            break;
          case InstrKind::kBlockwiseReduction:
            for (const ReduceItem& item : dev.reduce_items_of(instr)) {
              check_ref(item.dst, "reduce dst");
              check_ref(item.src0, "reduce src0");
              if (item.mode == ReduceMode::kComputeDelta) {
                check_ref(item.src1, "reduce src1");
              }
            }
            break;
          case InstrKind::kCommLaunch: {
            for (const TransferBlock& block : dev.blocks_of(instr)) {
              check_ref(block.ref, instr.is_send ? "send block" : "recv block");
            }
            TransferEnds* ends = transfer_of(instr);
            if (ends == nullptr) {
              break;
            }
            if (instr.is_send) {
              ++ends->sends;
              ends->send_blocks += instr.block_range.size();
              ends->send_bytes = instr.comm_bytes;
              ends->send_device = d;
              ends->send_peer = instr.peer;
            } else {
              ++ends->recvs;
              ends->recv_blocks += instr.block_range.size();
              ends->recv_bytes = instr.comm_bytes;
              ends->recv_device = d;
              ends->recv_peer = instr.peer;
            }
            break;
          }
          case InstrKind::kCommWait:
            if (TransferEnds* ends = transfer_of(instr); ends != nullptr) {
              ++ends->waits;
            }
            break;
        }
      }
      forward_stream = false;
    }
    attn_walk.Finish();
    reduce_walk.Finish();
    block_walk.Finish();
  }

  for (size_t id = 0; id < launches; ++id) {
    const TransferEnds& ends = transfers[id];
    if (ends.sends == 0 && ends.recvs == 0 && ends.waits == 0) {
      continue;  // No instruction names this id.
    }
    auto fail = [&](const std::string& why) {
      result.Fail("transfer " + std::to_string(id) + ": " + why);
    };
    if (ends.sends != 1 || ends.recvs != 1) {
      fail(std::to_string(ends.sends) + " sends, " + std::to_string(ends.recvs) +
           " recvs (want 1/1)");
      continue;
    }
    if (ends.send_blocks != ends.recv_blocks) {
      fail("block count mismatch");
    }
    if (ends.send_bytes != ends.recv_bytes) {
      fail("byte annotation mismatch");
    }
    if (ends.send_peer != ends.recv_device || ends.recv_peer != ends.send_device) {
      fail("peer fields inconsistent");
    }
    if (ends.waits == 0) {
      fail("never waited on");
    }
  }

  // Both streams finish under the wait rule every consumer shares. Walked only once the
  // checks above pass, so a stall is reported on its own, not as the echo of a missing or
  // doubled launch.
  if (result.ok) {
    for (const bool backward : {false, true}) {
      const Status progress =
          RunStreams<char>(plan, backward, [](DeviceId, const Instruction&, char*) {});
      if (!progress.ok()) {
        result.Fail(progress.message());
      }
    }
  }
  return result;
}

}  // namespace dcp
