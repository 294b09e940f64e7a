#include "core/plan_compile.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "runtime/cost_model.h"

namespace dcp {
namespace {

// A data-block key on a device: (global chunk id, group), dense in [0, chunks * groups)
// and ordered by chunk, then group.
int64_t Key(int gc, GroupId g, int num_groups) {
  return static_cast<int64_t>(gc) * num_groups + g;
}
int KeyChunk(int64_t key, int num_groups) { return static_cast<int>(key / num_groups); }
GroupId KeyGroup(int64_t key, int num_groups) {
  return static_cast<GroupId>(key % num_groups);
}

constexpr int32_t kNoSlot = -1;

// One device's slots and data movement. Per-key arrays are indexed by Key(); per-peer
// arrays by device id, so iterating them runs in key or device order.
struct DeviceBuild {
  std::vector<int32_t> qside;   // key -> slot in kQ/kO/kAcc/kDO/kDelta/kDQ, or kNoSlot.
  std::vector<int32_t> kvside;  // key -> slot in kKV/kDKV, or kNoSlot.
  // Keys homed here, ascending: local slot i (q-side and kv-side) holds local_keys[i].
  std::vector<int64_t> local_keys;
  int32_t n_qside = 0;
  int32_t n_kvside = 0;
  // Input fetch plan: [division * num_devices + src] -> keys first needed in that division.
  std::vector<std::vector<int64_t>> q_fetch;
  std::vector<std::vector<int64_t>> kv_fetch;
  // Partial results produced here for chunks homed elsewhere: [home] -> keys.
  std::vector<std::vector<int64_t>> partial_out;  // q-side keys (acc + dq).
  std::vector<std::vector<int64_t>> dkv_out;      // kv-side keys.
  // Staging of the partials each source sends here: the i-th key of source s's
  // partial_out (dkv_out) for this device lands in slot acc_stage[s] + i of kAcc, reused
  // for kDQ (dkv_stage[s] + i of kDKV).
  std::vector<int32_t> acc_stage;
  std::vector<int32_t> dkv_stage;
  int32_t n_acc_stage = 0;
  int32_t n_dkv_stage = 0;

  int32_t n_local() const { return static_cast<int32_t>(local_keys.size()); }
};

struct TransferDesc {
  enum class Kind { kFwInput, kFwPartial, kBwInput, kBwGrad };
  Kind kind = Kind::kFwInput;
  int32_t id = -1;
  DeviceId src = kInvalidDevice;
  DeviceId dst = kInvalidDevice;
  int division = -1;  // Receiving division for input fetches; -1 for epilogue transfers.
  std::vector<TransferBlock> send_blocks;
  std::vector<TransferBlock> recv_blocks;
  Bytes bytes = 0;
};

Bytes DeltaBlockBytes(const BatchLayout& layout, int64_t len) {
  return static_cast<Bytes>(layout.heads_per_group) * len * layout.bytes_per_element;
}

class PlanCompiler {
 public:
  PlanCompiler(const BlockGraph& graph, const PlacementResult& placement,
               const ScheduleResult& schedule, const ClusterSpec& cluster)
      : graph_(graph),
        placement_(placement),
        schedule_(schedule),
        cluster_(cluster),
        layout_(graph.layout),
        num_groups_(graph.layout.num_groups),
        num_devices_(static_cast<int>(schedule.divisions.size())),
        t_count_(schedule.num_divisions()) {
    chunk_base_.reserve(static_cast<size_t>(layout_.num_sequences()));
    int base = 0;
    for (SeqId s = 0; s < layout_.num_sequences(); ++s) {
      chunk_base_.push_back(base);
      base += layout_.NumChunks(s);
    }
  }

  BatchPlan Compile() {
    BuildSlotMaps();
    BuildTransfers();
    BatchPlan plan;
    plan.layout = layout_;
    plan.chunk_home = placement_.chunk_device;
    plan.devices.resize(static_cast<size_t>(num_devices_));
    for (int d = 0; d < num_devices_; ++d) {
      EmitDevice(d, plan.devices[static_cast<size_t>(d)]);
    }
    FillStats(plan);
    return plan;
  }

 private:
  // layout_.GlobalChunkId without its scan over the preceding sequences.
  int GlobalChunk(SeqId s, ChunkId c) const {
    return chunk_base_[static_cast<size_t>(s)] + c;
  }

  int64_t ChunkLenOf(int64_t key) const {
    return graph_.chunks[static_cast<size_t>(KeyChunk(key, num_groups_))].length();
  }

  DeviceId HomeOf(int64_t key) const {
    return placement_.chunk_device[static_cast<size_t>(KeyChunk(key, num_groups_))];
  }

  // Records that device `d` needs the remote block `key` from division `t` on: a new
  // slot on its `side`, a fetch from the block's home, and a partial result back to it.
  void AddRemote(DeviceBuild& build, int t, int64_t key, DeviceId home, bool kv) {
    std::vector<int32_t>& side = kv ? build.kvside : build.qside;
    int32_t& count = kv ? build.n_kvside : build.n_qside;
    side[static_cast<size_t>(key)] = count++;
    (kv ? build.kv_fetch : build.q_fetch)[static_cast<size_t>(t * num_devices_ + home)]
        .push_back(key);
    (kv ? build.dkv_out : build.partial_out)[static_cast<size_t>(home)].push_back(key);
  }

  void BuildSlotMaps() {
    const size_t num_keys =
        static_cast<size_t>(graph_.num_chunks()) * static_cast<size_t>(num_groups_);
    const size_t devices = static_cast<size_t>(num_devices_);
    builds_.assign(devices, DeviceBuild{});
    for (DeviceBuild& build : builds_) {
      build.qside.assign(num_keys, kNoSlot);
      build.kvside.assign(num_keys, kNoSlot);
      build.q_fetch.resize(static_cast<size_t>(t_count_) * devices);
      build.kv_fetch.resize(static_cast<size_t>(t_count_) * devices);
      build.partial_out.resize(devices);
      build.dkv_out.resize(devices);
      build.acc_stage.assign(devices, kNoSlot);
      build.dkv_stage.assign(devices, kNoSlot);
    }
    // Local slots: every (chunk, group) of chunks homed on the device, in key order.
    for (int gc = 0; gc < graph_.num_chunks(); ++gc) {
      DeviceBuild& build =
          builds_[static_cast<size_t>(placement_.chunk_device[static_cast<size_t>(gc)])];
      for (GroupId g = 0; g < num_groups_; ++g) {
        const int64_t key = Key(gc, g, num_groups_);
        build.qside[static_cast<size_t>(key)] = build.n_local();
        build.kvside[static_cast<size_t>(key)] = build.n_local();
        build.local_keys.push_back(key);
      }
    }
    for (DeviceBuild& build : builds_) {
      build.n_qside = build.n_local();
      build.n_kvside = build.n_local();
    }
    // Remote slots, replaying the division order (first need wins).
    for (int d = 0; d < num_devices_; ++d) {
      DeviceBuild& build = builds_[static_cast<size_t>(d)];
      for (int t = 0; t < t_count_; ++t) {
        // Forced KV circulation (static ring baselines) enters the fetch plan first, so
        // any tile needing the block afterwards finds it already scheduled.
        if (!schedule_.forced_kv_keys.empty()) {
          for (int64_t kv_key :
               schedule_.forced_kv_keys[static_cast<size_t>(d)][static_cast<size_t>(t)]) {
            const DeviceId kv_home = HomeOf(kv_key);
            if (kv_home != d && build.kvside[static_cast<size_t>(kv_key)] == kNoSlot) {
              AddRemote(build, t, kv_key, kv_home, /*kv=*/true);
            }
          }
        }
        for (int i : schedule_.divisions[static_cast<size_t>(d)][static_cast<size_t>(t)]) {
          const CompBlock& block = graph_.comp_blocks[static_cast<size_t>(i)];
          const int64_t q_key =
              Key(GlobalChunk(block.seq, block.q_chunk), block.group, num_groups_);
          const int64_t kv_key =
              Key(GlobalChunk(block.seq, block.kv_chunk), block.group, num_groups_);
          const DeviceId q_home = HomeOf(q_key);
          const DeviceId kv_home = HomeOf(kv_key);
          if (q_home != d && build.qside[static_cast<size_t>(q_key)] == kNoSlot) {
            AddRemote(build, t, q_key, q_home, /*kv=*/false);
          }
          if (kv_home != d && build.kvside[static_cast<size_t>(kv_key)] == kNoSlot) {
            AddRemote(build, t, kv_key, kv_home, /*kv=*/true);
          }
        }
      }
    }
    // Staging slots of incoming partials: per home, sources in device order.
    for (int src = 0; src < num_devices_; ++src) {
      const DeviceBuild& src_build = builds_[static_cast<size_t>(src)];
      for (int home = 0; home < num_devices_; ++home) {
        DeviceBuild& home_build = builds_[static_cast<size_t>(home)];
        const size_t q_count = src_build.partial_out[static_cast<size_t>(home)].size();
        if (q_count > 0) {
          home_build.acc_stage[static_cast<size_t>(src)] =
              home_build.n_qside + home_build.n_acc_stage;
          home_build.n_acc_stage += static_cast<int32_t>(q_count);
        }
        const size_t kv_count = src_build.dkv_out[static_cast<size_t>(home)].size();
        if (kv_count > 0) {
          home_build.dkv_stage[static_cast<size_t>(src)] =
              home_build.n_kvside + home_build.n_dkv_stage;
          home_build.n_dkv_stage += static_cast<int32_t>(kv_count);
        }
      }
    }
  }

  void BuildTransfers() {
    // Forward input fetches + backward input fetches, one transfer per (src, dst, div).
    for (int d = 0; d < num_devices_; ++d) {
      const DeviceBuild& build = builds_[static_cast<size_t>(d)];
      for (int t = 0; t < t_count_; ++t) {
        for (int src = 0; src < num_devices_; ++src) {
          const size_t at = static_cast<size_t>(t * num_devices_ + src);
          if (!build.q_fetch[at].empty() || !build.kv_fetch[at].empty()) {
            MakeInputTransfers(src, d, t, build.q_fetch[at], build.kv_fetch[at]);
          }
        }
      }
      // Epilogue transfers.
      for (int home = 0; home < num_devices_; ++home) {
        if (!build.partial_out[static_cast<size_t>(home)].empty()) {
          MakeFwPartialTransfer(d, home);
        }
      }
    }
    for (int d = 0; d < num_devices_; ++d) {
      const DeviceBuild& build = builds_[static_cast<size_t>(d)];
      // Backward gradient returns: dq (q-side) + dkv (kv-side) bundled per destination.
      for (int home = 0; home < num_devices_; ++home) {
        if (!build.partial_out[static_cast<size_t>(home)].empty() ||
            !build.dkv_out[static_cast<size_t>(home)].empty()) {
          MakeBwGradTransfer(d, home);
        }
      }
    }
    // Each device's transfers, in transfer order, for the emitters below.
    device_transfers_.assign(static_cast<size_t>(num_devices_), {});
    for (const TransferDesc& t : transfers_) {
      device_transfers_[static_cast<size_t>(t.src)].push_back(&t);
      device_transfers_[static_cast<size_t>(t.dst)].push_back(&t);
    }
  }

  void MakeInputTransfers(DeviceId src, DeviceId dst, int division,
                          const std::vector<int64_t>& q_keys,
                          const std::vector<int64_t>& kv_keys) {
    const DeviceBuild& src_build = builds_[static_cast<size_t>(src)];
    const DeviceBuild& dst_build = builds_[static_cast<size_t>(dst)];
    // Forward: Q and KV blocks.
    TransferDesc fw;
    fw.kind = TransferDesc::Kind::kFwInput;
    fw.id = next_transfer_id_++;
    fw.src = src;
    fw.dst = dst;
    fw.division = division;
    // Backward: Q, dO, delta, stats (acc) for q-side keys; KV for kv-side keys.
    TransferDesc bw;
    bw.kind = TransferDesc::Kind::kBwInput;
    bw.id = next_transfer_id_++;
    bw.src = src;
    bw.dst = dst;
    bw.division = division;
    for (int64_t key : q_keys) {
      const int64_t len = ChunkLenOf(key);
      const int32_t s_slot = src_build.qside[static_cast<size_t>(key)];
      const int32_t d_slot = dst_build.qside[static_cast<size_t>(key)];
      const Bytes q_bytes = layout_.QBlockBytes(len);
      fw.send_blocks.push_back({{BufKind::kQ, s_slot}, q_bytes, len});
      fw.recv_blocks.push_back({{BufKind::kQ, d_slot}, q_bytes, len});
      fw.bytes += q_bytes;
      const Bytes do_bytes = layout_.OBlockBytes(len);
      const Bytes delta_bytes = DeltaBlockBytes(layout_, len);
      const Bytes acc_bytes = layout_.AccBlockBytes(len);
      bw.send_blocks.push_back({{BufKind::kQ, s_slot}, q_bytes, len});
      bw.recv_blocks.push_back({{BufKind::kQ, d_slot}, q_bytes, len});
      bw.send_blocks.push_back({{BufKind::kDO, s_slot}, do_bytes, len});
      bw.recv_blocks.push_back({{BufKind::kDO, d_slot}, do_bytes, len});
      bw.send_blocks.push_back({{BufKind::kDelta, s_slot}, delta_bytes, len});
      bw.recv_blocks.push_back({{BufKind::kDelta, d_slot}, delta_bytes, len});
      bw.send_blocks.push_back({{BufKind::kAcc, s_slot}, acc_bytes, len});
      bw.recv_blocks.push_back({{BufKind::kAcc, d_slot}, acc_bytes, len});
      bw.bytes += q_bytes + do_bytes + delta_bytes + acc_bytes;
    }
    for (int64_t key : kv_keys) {
      const int64_t len = ChunkLenOf(key);
      const int32_t s_slot = src_build.kvside[static_cast<size_t>(key)];
      const int32_t d_slot = dst_build.kvside[static_cast<size_t>(key)];
      const Bytes kv_bytes = layout_.KvBlockBytes(len);
      fw.send_blocks.push_back({{BufKind::kKV, s_slot}, kv_bytes, len});
      fw.recv_blocks.push_back({{BufKind::kKV, d_slot}, kv_bytes, len});
      fw.bytes += kv_bytes;
      bw.send_blocks.push_back({{BufKind::kKV, s_slot}, kv_bytes, len});
      bw.recv_blocks.push_back({{BufKind::kKV, d_slot}, kv_bytes, len});
      bw.bytes += kv_bytes;
    }
    transfers_.push_back(std::move(fw));
    transfers_.push_back(std::move(bw));
  }

  void MakeFwPartialTransfer(DeviceId src, DeviceId home) {
    const DeviceBuild& src_build = builds_[static_cast<size_t>(src)];
    const std::vector<int64_t>& keys = src_build.partial_out[static_cast<size_t>(home)];
    const int32_t stage =
        builds_[static_cast<size_t>(home)].acc_stage[static_cast<size_t>(src)];
    TransferDesc t;
    t.kind = TransferDesc::Kind::kFwPartial;
    t.id = next_transfer_id_++;
    t.src = src;
    t.dst = home;
    for (size_t i = 0; i < keys.size(); ++i) {
      const int64_t len = ChunkLenOf(keys[i]);
      const Bytes bytes = layout_.AccBlockBytes(len);
      t.send_blocks.push_back(
          {{BufKind::kAcc, src_build.qside[static_cast<size_t>(keys[i])]}, bytes, len});
      t.recv_blocks.push_back({{BufKind::kAcc, stage + static_cast<int32_t>(i)}, bytes, len});
      t.bytes += bytes;
    }
    transfers_.push_back(std::move(t));
  }

  void MakeBwGradTransfer(DeviceId src, DeviceId home) {
    const DeviceBuild& src_build = builds_[static_cast<size_t>(src)];
    const DeviceBuild& home_build = builds_[static_cast<size_t>(home)];
    TransferDesc t;
    t.kind = TransferDesc::Kind::kBwGrad;
    t.id = next_transfer_id_++;
    t.src = src;
    t.dst = home;
    // dq partials stage in the same slots as the forward's acc partials.
    const std::vector<int64_t>& dq_keys = src_build.partial_out[static_cast<size_t>(home)];
    const int32_t dq_stage = home_build.acc_stage[static_cast<size_t>(src)];
    for (size_t i = 0; i < dq_keys.size(); ++i) {
      const int64_t len = ChunkLenOf(dq_keys[i]);
      const Bytes bytes = layout_.QBlockBytes(len);
      t.send_blocks.push_back(
          {{BufKind::kDQ, src_build.qside[static_cast<size_t>(dq_keys[i])]}, bytes, len});
      t.recv_blocks.push_back(
          {{BufKind::kDQ, dq_stage + static_cast<int32_t>(i)}, bytes, len});
      t.bytes += bytes;
    }
    const std::vector<int64_t>& dkv_keys = src_build.dkv_out[static_cast<size_t>(home)];
    const int32_t dkv_stage = home_build.dkv_stage[static_cast<size_t>(src)];
    for (size_t i = 0; i < dkv_keys.size(); ++i) {
      const int64_t len = ChunkLenOf(dkv_keys[i]);
      const Bytes bytes = layout_.KvBlockBytes(len);
      t.send_blocks.push_back(
          {{BufKind::kDKV, src_build.kvside[static_cast<size_t>(dkv_keys[i])]}, bytes, len});
      t.recv_blocks.push_back(
          {{BufKind::kDKV, dkv_stage + static_cast<int32_t>(i)}, bytes, len});
      t.bytes += bytes;
    }
    transfers_.push_back(std::move(t));
  }

  // The Emit* helpers append to `out`, one of `plan`'s two streams.
  static void EmitCommLaunch(const TransferDesc& t, bool send, DevicePlan& plan,
                             std::vector<Instruction>& out) {
    Instruction& instr = plan.Append(out, InstrKind::kCommLaunch);
    instr.transfer_id = t.id;
    instr.peer = send ? t.dst : t.src;
    instr.is_send = send;
    instr.comm_bytes = t.bytes;
    for (const TransferBlock& block : send ? t.send_blocks : t.recv_blocks) {
      plan.Add(instr, block);
    }
  }

  static void EmitCommWait(const TransferDesc& t, DevicePlan& plan,
                           std::vector<Instruction>& out) {
    plan.Append(out, InstrKind::kCommWait).transfer_id = t.id;
  }

  void EmitAttention(DeviceId d, const std::vector<int>& block_ids, bool backward,
                     DevicePlan& plan, std::vector<Instruction>& out) const {
    const DeviceBuild& build = builds_[static_cast<size_t>(d)];
    Instruction& instr = plan.Append(out, InstrKind::kBlockwiseAttention);
    instr.backward = backward;
    for (int i : block_ids) {
      const CompBlock& block = graph_.comp_blocks[static_cast<size_t>(i)];
      const int64_t q_key =
          Key(GlobalChunk(block.seq, block.q_chunk), block.group, num_groups_);
      const int64_t kv_key =
          Key(GlobalChunk(block.seq, block.kv_chunk), block.group, num_groups_);
      AttentionWorkItem item;
      item.seq = block.seq;
      item.group = block.group;
      item.q_chunk = block.q_chunk;
      item.kv_chunk = block.kv_chunk;
      item.q_slot = build.qside[static_cast<size_t>(q_key)];
      item.kv_slot = build.kvside[static_cast<size_t>(kv_key)];
      item.full = block.full;
      plan.Add(instr, item);
      instr.flops += backward ? block.flops * kBackwardFlopsFactor : block.flops;
      // Memory traffic of the tile: every tile re-reads its Q and KV blocks and updates
      // the output accumulator (backward also reads dO and writes dQ/dKV — roughly 2x).
      // This is the per-step kernel overhead the paper's §7.5 decomposition observes.
      const int64_t q_len = layout_.ChunkLen(block.seq, block.q_chunk);
      const int64_t kv_len = layout_.ChunkLen(block.seq, block.kv_chunk);
      const Bytes tile_bytes = layout_.QBlockBytes(q_len) + layout_.KvBlockBytes(kv_len) +
                               2 * layout_.OBlockBytes(q_len);
      instr.mem_bytes += backward ? 2 * tile_bytes : tile_bytes;
    }
  }

  // Emits the pipelined division loop shared by forward and backward.
  void EmitPipeline(DeviceId d, bool backward, DevicePlan& plan,
                    std::vector<Instruction>& out) const {
    const auto transfer_kind =
        backward ? TransferDesc::Kind::kBwInput : TransferDesc::Kind::kFwInput;

    // This device's transfers by receiving division, for its launches and waits.
    std::vector<std::vector<const TransferDesc*>> recv_by_div(
        static_cast<size_t>(t_count_));
    std::vector<std::vector<const TransferDesc*>> send_by_div(
        static_cast<size_t>(t_count_));
    for (const TransferDesc* t : device_transfers_[static_cast<size_t>(d)]) {
      if (t->kind == transfer_kind) {
        (t->dst == d ? recv_by_div : send_by_div)[static_cast<size_t>(t->division)]
            .push_back(t);
      }
    }

    auto emit_launches = [&](int t) {
      for (const TransferDesc* desc : send_by_div[static_cast<size_t>(t)]) {
        EmitCommLaunch(*desc, /*send=*/true, plan, out);
      }
      for (const TransferDesc* desc : recv_by_div[static_cast<size_t>(t)]) {
        EmitCommLaunch(*desc, /*send=*/false, plan, out);
      }
    };
    auto emit_waits = [&](int t) {
      for (const TransferDesc* desc : recv_by_div[static_cast<size_t>(t)]) {
        EmitCommWait(*desc, plan, out);
      }
    };

    // Division 0 fetches (only present when T == 1): launch + wait up front.
    emit_launches(0);
    emit_waits(0);
    for (int t = 0; t < t_count_; ++t) {
      if (t + 1 < t_count_) {
        emit_launches(t + 1);
      }
      const auto& block_ids =
          schedule_.divisions[static_cast<size_t>(d)][static_cast<size_t>(t)];
      if (!block_ids.empty()) {
        EmitAttention(d, block_ids, backward, plan, out);
      }
      if (t + 1 < t_count_) {
        emit_waits(t + 1);
      }
    }
  }

  void EmitDevice(DeviceId d, DevicePlan& plan) const {
    const DeviceBuild& build = builds_[static_cast<size_t>(d)];
    plan.num_slots[static_cast<size_t>(BufKind::kQ)] = build.n_qside;
    plan.num_slots[static_cast<size_t>(BufKind::kKV)] = build.n_kvside;
    plan.num_slots[static_cast<size_t>(BufKind::kO)] = build.n_local();
    plan.num_slots[static_cast<size_t>(BufKind::kAcc)] = build.n_qside + build.n_acc_stage;
    plan.num_slots[static_cast<size_t>(BufKind::kDO)] = build.n_qside;
    plan.num_slots[static_cast<size_t>(BufKind::kDelta)] = build.n_qside;
    plan.num_slots[static_cast<size_t>(BufKind::kDQ)] = build.n_qside + build.n_acc_stage;
    plan.num_slots[static_cast<size_t>(BufKind::kDKV)] =
        build.n_kvside + build.n_dkv_stage;

    // Local chunk table (slot == local index for every q-side buffer kind).
    for (int32_t slot = 0; slot < build.n_local(); ++slot) {
      const int64_t key = build.local_keys[static_cast<size_t>(slot)];
      const TokenChunk& chunk =
          graph_.chunks[static_cast<size_t>(KeyChunk(key, num_groups_))];
      LocalChunk local;
      local.seq = chunk.seq;
      local.chunk = chunk.chunk;
      local.group = KeyGroup(key, num_groups_);
      local.q_slot = slot;
      local.kv_slot = build.kvside[static_cast<size_t>(key)];
      plan.local_chunks.push_back(local);
    }

    // Forward first: the pools hold items in stream order.
    EmitForward(d, plan);
    EmitBackward(d, plan);
  }

  // Launches this device's side of every `kind` epilogue transfer, in transfer order.
  void EmitEpilogueLaunches(DeviceId d, TransferDesc::Kind kind, DevicePlan& plan,
                            std::vector<Instruction>& out) const {
    for (const TransferDesc* t : device_transfers_[static_cast<size_t>(d)]) {
      if (t->kind == kind) {
        EmitCommLaunch(*t, /*send=*/t->src == d, plan, out);
      }
    }
  }

  void EmitForward(DeviceId d, DevicePlan& plan) const {
    const DeviceBuild& build = builds_[static_cast<size_t>(d)];
    std::vector<Instruction>& out = plan.instructions;
    EmitPipeline(d, /*backward=*/false, plan, out);

    // Epilogue: ship partial accumulators home, merge, finalize.
    EmitEpilogueLaunches(d, TransferDesc::Kind::kFwPartial, plan, out);
    for (const TransferDesc* t : device_transfers_[static_cast<size_t>(d)]) {
      if (t->kind != TransferDesc::Kind::kFwPartial || t->dst != d) {
        continue;
      }
      EmitCommWait(*t, plan, out);
      Instruction& merge = plan.Append(out, InstrKind::kBlockwiseReduction);
      const auto& keys =
          builds_[static_cast<size_t>(t->src)].partial_out[static_cast<size_t>(d)];
      const int32_t stage = build.acc_stage[static_cast<size_t>(t->src)];
      for (size_t i = 0; i < keys.size(); ++i) {
        const int64_t len = ChunkLenOf(keys[i]);
        ReduceItem item;
        item.mode = ReduceMode::kMergeSoftmax;
        item.dst = {BufKind::kAcc, build.qside[static_cast<size_t>(keys[i])]};
        item.src0 = {BufKind::kAcc, stage + static_cast<int32_t>(i)};
        item.token_count = len;
        plan.Add(merge, item);
        merge.mem_bytes += 2 * layout_.AccBlockBytes(len);
      }
    }
    // Finalize all local outputs.
    if (build.n_local() == 0) {
      return;
    }
    Instruction& finalize = plan.Append(out, InstrKind::kBlockwiseReduction);
    for (int32_t slot = 0; slot < build.n_local(); ++slot) {
      const int64_t len = ChunkLenOf(build.local_keys[static_cast<size_t>(slot)]);
      ReduceItem item;
      item.mode = ReduceMode::kFinalize;
      item.dst = {BufKind::kO, slot};
      item.src0 = {BufKind::kAcc, slot};
      item.token_count = len;
      plan.Add(finalize, item);
      finalize.mem_bytes += layout_.OBlockBytes(len) + layout_.AccBlockBytes(len);
    }
  }

  void EmitBackward(DeviceId d, DevicePlan& plan) const {
    const DeviceBuild& build = builds_[static_cast<size_t>(d)];
    std::vector<Instruction>& out = plan.backward_instructions;
    // Delta for every local chunk (needed by local tiles and by remote fetchers).
    if (build.n_local() > 0) {
      Instruction& delta = plan.Append(out, InstrKind::kBlockwiseReduction);
      for (int32_t slot = 0; slot < build.n_local(); ++slot) {
        const int64_t len = ChunkLenOf(build.local_keys[static_cast<size_t>(slot)]);
        ReduceItem item;
        item.mode = ReduceMode::kComputeDelta;
        item.dst = {BufKind::kDelta, slot};
        item.src0 = {BufKind::kDO, slot};
        item.src1 = {BufKind::kO, slot};
        item.token_count = len;
        plan.Add(delta, item);
        delta.mem_bytes += 2 * layout_.OBlockBytes(len);
      }
    }

    EmitPipeline(d, /*backward=*/true, plan, out);

    // Epilogue: return dQ/dKV partials, sum at home.
    EmitEpilogueLaunches(d, TransferDesc::Kind::kBwGrad, plan, out);
    for (const TransferDesc* t : device_transfers_[static_cast<size_t>(d)]) {
      if (t->kind != TransferDesc::Kind::kBwGrad || t->dst != d) {
        continue;
      }
      EmitCommWait(*t, plan, out);
      Instruction& sum = plan.Append(out, InstrKind::kBlockwiseReduction);
      const DeviceBuild& src_build = builds_[static_cast<size_t>(t->src)];
      const auto& dq_keys = src_build.partial_out[static_cast<size_t>(d)];
      for (size_t i = 0; i < dq_keys.size(); ++i) {
        const int64_t len = ChunkLenOf(dq_keys[i]);
        ReduceItem item;
        item.mode = ReduceMode::kSum;
        item.dst = {BufKind::kDQ, build.qside[static_cast<size_t>(dq_keys[i])]};
        item.src0 = {BufKind::kDQ, build.acc_stage[static_cast<size_t>(t->src)] +
                                       static_cast<int32_t>(i)};
        item.token_count = len;
        plan.Add(sum, item);
        sum.mem_bytes += 2 * layout_.QBlockBytes(len);
      }
      const auto& dkv_keys = src_build.dkv_out[static_cast<size_t>(d)];
      for (size_t i = 0; i < dkv_keys.size(); ++i) {
        const int64_t len = ChunkLenOf(dkv_keys[i]);
        ReduceItem item;
        item.mode = ReduceMode::kSum;
        item.dst = {BufKind::kDKV, build.kvside[static_cast<size_t>(dkv_keys[i])]};
        item.src0 = {BufKind::kDKV, build.dkv_stage[static_cast<size_t>(t->src)] +
                                        static_cast<int32_t>(i)};
        item.token_count = len;
        plan.Add(sum, item);
        sum.mem_bytes += 2 * layout_.KvBlockBytes(len);
      }
    }
  }

  void FillStats(BatchPlan& plan) const {
    PlanStats& stats = plan.stats;
    std::vector<Bytes> per_device(static_cast<size_t>(num_devices_), 0);
    for (const TransferDesc& t : transfers_) {
      if (t.kind != TransferDesc::Kind::kFwInput &&
          t.kind != TransferDesc::Kind::kFwPartial) {
        continue;
      }
      stats.total_comm_bytes += t.bytes;
      if (!cluster_.SameNode(t.src, t.dst)) {
        stats.inter_node_comm_bytes += t.bytes;
      }
      per_device[static_cast<size_t>(t.src)] += t.bytes;
      per_device[static_cast<size_t>(t.dst)] += t.bytes;
    }
    for (Bytes bytes : per_device) {
      stats.max_device_comm_bytes = std::max(stats.max_device_comm_bytes, bytes);
    }
    stats.total_flops = graph_.TotalFlops();
    for (int d = 0; d < num_devices_; ++d) {
      Flops device_flops = 0.0;
      for (const auto& division : schedule_.divisions[static_cast<size_t>(d)]) {
        for (int i : division) {
          device_flops += graph_.comp_blocks[static_cast<size_t>(i)].flops;
        }
      }
      stats.max_device_flops = std::max(stats.max_device_flops, device_flops);
    }
    // Owned-data balance: the memory proxy the placement constrains.
    std::vector<Bytes> owned(static_cast<size_t>(num_devices_), 0);
    for (int gc = 0; gc < graph_.num_chunks(); ++gc) {
      owned[static_cast<size_t>(placement_.chunk_device[static_cast<size_t>(gc)])] +=
          graph_.chunks[static_cast<size_t>(gc)].bytes;
    }
    stats.max_device_owned_bytes = owned.empty() ? 0 : owned[0];
    stats.min_device_owned_bytes = stats.max_device_owned_bytes;
    for (Bytes bytes : owned) {
      stats.max_device_owned_bytes = std::max(stats.max_device_owned_bytes, bytes);
      stats.min_device_owned_bytes = std::min(stats.min_device_owned_bytes, bytes);
    }
    stats.partition_cost = 0.0;  // Filled by the planner.
  }

  const BlockGraph& graph_;
  const PlacementResult& placement_;
  const ScheduleResult& schedule_;
  const ClusterSpec& cluster_;
  const BatchLayout& layout_;
  const int num_groups_;
  const int num_devices_;
  const int t_count_;
  std::vector<int> chunk_base_;  // Global id of each sequence's first chunk.

  std::vector<DeviceBuild> builds_;
  std::vector<TransferDesc> transfers_;
  // Each device's transfers (as sender or receiver), in transfer order.
  std::vector<std::vector<const TransferDesc*>> device_transfers_;
  int32_t next_transfer_id_ = 0;
};

}  // namespace

BatchPlan CompilePlan(const BlockGraph& graph, const PlacementResult& placement,
                      const ScheduleResult& schedule, const ClusterSpec& cluster) {
  PlanCompiler compiler(graph, placement, schedule, cluster);
  return compiler.Compile();
}

}  // namespace dcp
