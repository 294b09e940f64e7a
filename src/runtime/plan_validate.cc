#include "runtime/plan_validate.h"

#include <map>
#include <set>
#include <sstream>
#include <tuple>

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
    if (range.begin > range.end || range.end > pool_size_) {
      Fail(range, "is outside the pool of " + std::to_string(pool_size_));
      return false;
    }
    if (range.begin != next_) {
      Fail(range, std::string(range.begin < next_ ? "overlaps" : "leaves a gap after") +
                      " the previous instruction's range, which ended at " +
                      std::to_string(next_));
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
  void Fail(ItemRange range, const std::string& why) {
    ok_ = false;
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

}  // namespace

PlanValidation ValidatePlan(const BatchPlan& plan) {
  PlanValidation result;
  const BatchLayout& layout = plan.layout;

  // Chunk homes.
  size_t expected_chunks = 0;
  for (SeqId s = 0; s < layout.num_sequences(); ++s) {
    expected_chunks += static_cast<size_t>(layout.NumChunks(s));
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

  // Local chunks partition the batch (per group).
  std::set<std::tuple<SeqId, ChunkId, GroupId>> owned;
  for (const DevicePlan& dev : plan.devices) {
    for (const LocalChunk& chunk : dev.local_chunks) {
      if (!owned.insert({chunk.seq, chunk.chunk, chunk.group}).second) {
        result.Fail("chunk (" + std::to_string(chunk.seq) + "," +
                    std::to_string(chunk.chunk) + "," + std::to_string(chunk.group) +
                    ") owned by multiple devices");
      }
    }
  }
  if (owned.size() != expected_chunks * static_cast<size_t>(layout.num_groups)) {
    result.Fail("local chunks cover " + std::to_string(owned.size()) + " of " +
                std::to_string(expected_chunks * static_cast<size_t>(layout.num_groups)) +
                " (chunk, group) pairs");
  }

  // Instruction-level checks.
  std::map<int32_t, TransferEnds> transfers;
  std::set<std::tuple<SeqId, GroupId, ChunkId, ChunkId>> forward_tiles;
  for (int d = 0; d < plan.num_devices(); ++d) {
    const DevicePlan& dev = plan.devices[static_cast<size_t>(d)];
    // False (and one error) when `index` is outside [0, count).
    auto check_index = [&](int64_t index, int64_t count, const char* what) {
      if (index < 0 || index >= count) {
        result.Fail(std::string(what) + " " + std::to_string(index) + " out of [0, " +
                    std::to_string(count) + ") on device " + std::to_string(d));
        return false;
      }
      return true;
    };
    auto check_ref = [&](const BlockRef& ref, const char* where) {
      if (ref.slot < 0 || ref.slot >= dev.num_slots[static_cast<size_t>(ref.kind)]) {
        result.Fail(std::string(where) + ": " + BufKindName(ref.kind) + " slot " +
                    std::to_string(ref.slot) + " out of [0, " +
                    std::to_string(dev.num_slots[static_cast<size_t>(ref.kind)]) +
                    ") on device " + std::to_string(d));
      }
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
              const int num_chunks = layout.NumChunks(item.seq);
              if (!check_index(item.q_chunk, num_chunks, "attention q chunk") ||
                  !check_index(item.kv_chunk, num_chunks, "attention kv chunk")) {
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
              const auto tile = std::tuple(item.seq, item.group, item.q_chunk,
                                           item.kv_chunk);
              if (forward_stream && !instr.backward && !forward_tiles.insert(tile).second) {
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
            TransferEnds& ends = transfers[instr.transfer_id];
            for (const TransferBlock& block : dev.blocks_of(instr)) {
              check_ref(block.ref, instr.is_send ? "send block" : "recv block");
            }
            if (instr.is_send) {
              ++ends.sends;
              ends.send_blocks += instr.block_range.size();
              ends.send_bytes = instr.comm_bytes;
              ends.send_device = d;
              ends.send_peer = instr.peer;
            } else {
              ++ends.recvs;
              ends.recv_blocks += instr.block_range.size();
              ends.recv_bytes = instr.comm_bytes;
              ends.recv_device = d;
              ends.recv_peer = instr.peer;
            }
            break;
          }
          case InstrKind::kCommWait:
            ++transfers[instr.transfer_id].waits;
            break;
        }
      }
      forward_stream = false;
    }
    attn_walk.Finish();
    reduce_walk.Finish();
    block_walk.Finish();
  }

  for (const auto& [id, ends] : transfers) {
    const std::string tag = "transfer " + std::to_string(id);
    if (ends.sends != 1 || ends.recvs != 1) {
      result.Fail(tag + ": " + std::to_string(ends.sends) + " sends, " +
                  std::to_string(ends.recvs) + " recvs (want 1/1)");
      continue;
    }
    if (ends.send_blocks != ends.recv_blocks) {
      result.Fail(tag + ": block count mismatch");
    }
    if (ends.send_bytes != ends.recv_bytes) {
      result.Fail(tag + ": byte annotation mismatch");
    }
    if (ends.send_peer != ends.recv_device || ends.recv_peer != ends.send_device) {
      result.Fail(tag + ": peer fields inconsistent");
    }
    if (ends.waits == 0) {
      result.Fail(tag + ": never waited on");
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
