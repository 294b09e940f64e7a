#include "core/plan_compile.h"

#include <algorithm>
#include <map>
#include <vector>

#include "common/check.h"
#include "runtime/cost_model.h"

namespace dcp {
namespace {

// A data-block key on a device: (global chunk id, group), encoded for map ordering.
int64_t Key(int gc, GroupId g, int num_groups) {
  return static_cast<int64_t>(gc) * num_groups + g;
}
int KeyChunk(int64_t key, int num_groups) { return static_cast<int>(key / num_groups); }
GroupId KeyGroup(int64_t key, int num_groups) {
  return static_cast<GroupId>(key % num_groups);
}

struct DeviceBuild {
  std::map<int64_t, int32_t> qside;   // key -> slot in kQ/kO/kAcc/kDO/kDelta/kDQ.
  std::map<int64_t, int32_t> kvside;  // key -> slot in kKV/kDKV.
  int32_t n_local = 0;
  int32_t n_qside = 0;
  int32_t n_kvside = 0;
  // Input fetch plan: [division][src] -> keys first needed in that division.
  std::vector<std::map<DeviceId, std::vector<int64_t>>> q_fetch;
  std::vector<std::map<DeviceId, std::vector<int64_t>>> kv_fetch;
  // Partial results produced here for chunks homed elsewhere, grouped by home device.
  std::map<DeviceId, std::vector<int64_t>> partial_out;  // q-side keys (acc + dq).
  std::map<DeviceId, std::vector<int64_t>> dkv_out;      // kv-side keys.
  // Incoming partials (filled from the other devices' *_out), grouped by source.
  std::map<DeviceId, std::vector<int64_t>> partial_in;
  std::map<DeviceId, std::vector<int64_t>> dkv_in;
  // Staging slot of each incoming partial, parallel to partial_in/dkv_in entries.
  std::map<DeviceId, std::vector<int32_t>> acc_stage;  // in kAcc (also reused for kDQ).
  std::map<DeviceId, std::vector<int32_t>> dkv_stage;  // in kDKV.
  int32_t n_acc_stage = 0;
  int32_t n_dkv_stage = 0;
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
        num_devices_(static_cast<int>(schedule.divisions.size())),
        t_count_(schedule.num_divisions()) {}

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
  int64_t ChunkLenOf(int64_t key) const {
    return graph_.chunks[static_cast<size_t>(KeyChunk(key, layout_.num_groups))].length();
  }

  void BuildSlotMaps() {
    builds_.assign(static_cast<size_t>(num_devices_), DeviceBuild{});
    // Local slots: every (chunk, group) of chunks homed on the device, in chunk order.
    for (int gc = 0; gc < graph_.num_chunks(); ++gc) {
      const DeviceId home = placement_.chunk_device[static_cast<size_t>(gc)];
      DeviceBuild& build = builds_[static_cast<size_t>(home)];
      for (GroupId g = 0; g < layout_.num_groups; ++g) {
        const int64_t key = Key(gc, g, layout_.num_groups);
        build.qside[key] = build.n_local;
        build.kvside[key] = build.n_local;
        ++build.n_local;
      }
    }
    for (DeviceBuild& build : builds_) {
      build.n_qside = build.n_local;
      build.n_kvside = build.n_local;
      build.q_fetch.resize(static_cast<size_t>(t_count_));
      build.kv_fetch.resize(static_cast<size_t>(t_count_));
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
            const int kv_gc = KeyChunk(kv_key, layout_.num_groups);
            const DeviceId kv_home = placement_.chunk_device[static_cast<size_t>(kv_gc)];
            if (kv_home != d && !build.kvside.contains(kv_key)) {
              build.kvside[kv_key] = build.n_kvside++;
              build.kv_fetch[static_cast<size_t>(t)][kv_home].push_back(kv_key);
              build.dkv_out[kv_home].push_back(kv_key);
            }
          }
        }
        for (int i : schedule_.divisions[static_cast<size_t>(d)][static_cast<size_t>(t)]) {
          const CompBlock& block = graph_.comp_blocks[static_cast<size_t>(i)];
          const int q_gc = layout_.GlobalChunkId(block.seq, block.q_chunk);
          const int kv_gc = layout_.GlobalChunkId(block.seq, block.kv_chunk);
          const int64_t q_key = Key(q_gc, block.group, layout_.num_groups);
          const int64_t kv_key = Key(kv_gc, block.group, layout_.num_groups);
          const DeviceId q_home = placement_.chunk_device[static_cast<size_t>(q_gc)];
          const DeviceId kv_home = placement_.chunk_device[static_cast<size_t>(kv_gc)];
          if (q_home != d && !build.qside.contains(q_key)) {
            build.qside[q_key] = build.n_qside++;
            build.q_fetch[static_cast<size_t>(t)][q_home].push_back(q_key);
            build.partial_out[q_home].push_back(q_key);
          }
          if (kv_home != d && !build.kvside.contains(kv_key)) {
            build.kvside[kv_key] = build.n_kvside++;
            build.kv_fetch[static_cast<size_t>(t)][kv_home].push_back(kv_key);
            build.dkv_out[kv_home].push_back(kv_key);
          }
        }
      }
    }
    // Incoming partials and their staging slots.
    for (int d = 0; d < num_devices_; ++d) {
      const DeviceBuild& src_build = builds_[static_cast<size_t>(d)];
      for (const auto& [home, keys] : src_build.partial_out) {
        DeviceBuild& home_build = builds_[static_cast<size_t>(home)];
        home_build.partial_in[d] = keys;
        auto& stages = home_build.acc_stage[d];
        for (size_t i = 0; i < keys.size(); ++i) {
          stages.push_back(home_build.n_qside + home_build.n_acc_stage++);
        }
      }
      for (const auto& [home, keys] : src_build.dkv_out) {
        DeviceBuild& home_build = builds_[static_cast<size_t>(home)];
        home_build.dkv_in[d] = keys;
        auto& stages = home_build.dkv_stage[d];
        for (size_t i = 0; i < keys.size(); ++i) {
          stages.push_back(home_build.n_kvside + home_build.n_dkv_stage++);
        }
      }
    }
  }

  void BuildTransfers() {
    // Forward input fetches + backward input fetches, one transfer per (src, dst, div).
    for (int d = 0; d < num_devices_; ++d) {
      DeviceBuild& build = builds_[static_cast<size_t>(d)];
      for (int t = 0; t < t_count_; ++t) {
        // Union of source devices contributing to division t.
        std::map<DeviceId, std::pair<std::vector<int64_t>, std::vector<int64_t>>> by_src;
        for (const auto& [src, keys] : build.q_fetch[static_cast<size_t>(t)]) {
          by_src[src].first = keys;
        }
        for (const auto& [src, keys] : build.kv_fetch[static_cast<size_t>(t)]) {
          by_src[src].second = keys;
        }
        for (const auto& [src, keys] : by_src) {
          MakeInputTransfers(src, d, t, keys.first, keys.second);
        }
      }
      // Epilogue transfers.
      for (const auto& [home, keys] : build.partial_out) {
        MakeFwPartialTransfer(d, home, keys);
      }
    }
    for (int d = 0; d < num_devices_; ++d) {
      DeviceBuild& build = builds_[static_cast<size_t>(d)];
      // Backward gradient returns: dq (q-side) + dkv (kv-side) bundled per destination.
      std::map<DeviceId, std::pair<std::vector<int64_t>, std::vector<int64_t>>> by_home;
      for (const auto& [home, keys] : build.partial_out) {
        by_home[home].first = keys;
      }
      for (const auto& [home, keys] : build.dkv_out) {
        by_home[home].second = keys;
      }
      for (const auto& [home, keys] : by_home) {
        MakeBwGradTransfer(d, home, keys.first, keys.second);
      }
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
      const int32_t s_slot = src_build.qside.at(key);
      const int32_t d_slot = dst_build.qside.at(key);
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
      const int32_t s_slot = src_build.kvside.at(key);
      const int32_t d_slot = dst_build.kvside.at(key);
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

  void MakeFwPartialTransfer(DeviceId src, DeviceId home,
                             const std::vector<int64_t>& keys) {
    const DeviceBuild& src_build = builds_[static_cast<size_t>(src)];
    const DeviceBuild& home_build = builds_[static_cast<size_t>(home)];
    const auto& stages = home_build.acc_stage.at(src);
    TransferDesc t;
    t.kind = TransferDesc::Kind::kFwPartial;
    t.id = next_transfer_id_++;
    t.src = src;
    t.dst = home;
    for (size_t i = 0; i < keys.size(); ++i) {
      const int64_t len = ChunkLenOf(keys[i]);
      const Bytes bytes = layout_.AccBlockBytes(len);
      t.send_blocks.push_back({{BufKind::kAcc, src_build.qside.at(keys[i])}, bytes, len});
      t.recv_blocks.push_back({{BufKind::kAcc, stages[i]}, bytes, len});
      t.bytes += bytes;
    }
    transfers_.push_back(std::move(t));
  }

  void MakeBwGradTransfer(DeviceId src, DeviceId home, const std::vector<int64_t>& dq_keys,
                          const std::vector<int64_t>& dkv_keys) {
    const DeviceBuild& src_build = builds_[static_cast<size_t>(src)];
    const DeviceBuild& home_build = builds_[static_cast<size_t>(home)];
    TransferDesc t;
    t.kind = TransferDesc::Kind::kBwGrad;
    t.id = next_transfer_id_++;
    t.src = src;
    t.dst = home;
    if (!dq_keys.empty()) {
      const auto& stages = home_build.acc_stage.at(src);  // Same indices reused for kDQ.
      for (size_t i = 0; i < dq_keys.size(); ++i) {
        const int64_t len = ChunkLenOf(dq_keys[i]);
        const Bytes bytes = layout_.QBlockBytes(len);
        t.send_blocks.push_back(
            {{BufKind::kDQ, src_build.qside.at(dq_keys[i])}, bytes, len});
        t.recv_blocks.push_back({{BufKind::kDQ, stages[i]}, bytes, len});
        t.bytes += bytes;
      }
    }
    if (!dkv_keys.empty()) {
      const auto& stages = home_build.dkv_stage.at(src);
      for (size_t i = 0; i < dkv_keys.size(); ++i) {
        const int64_t len = ChunkLenOf(dkv_keys[i]);
        const Bytes bytes = layout_.KvBlockBytes(len);
        t.send_blocks.push_back(
            {{BufKind::kDKV, src_build.kvside.at(dkv_keys[i])}, bytes, len});
        t.recv_blocks.push_back({{BufKind::kDKV, stages[i]}, bytes, len});
        t.bytes += bytes;
      }
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
      const int q_gc = layout_.GlobalChunkId(block.seq, block.q_chunk);
      const int kv_gc = layout_.GlobalChunkId(block.seq, block.kv_chunk);
      const int64_t q_key = Key(q_gc, block.group, layout_.num_groups);
      const int64_t kv_key = Key(kv_gc, block.group, layout_.num_groups);
      AttentionWorkItem item;
      item.seq = block.seq;
      item.group = block.group;
      item.q_chunk = block.q_chunk;
      item.kv_chunk = block.kv_chunk;
      item.q_slot = build.qside.at(q_key);
      item.kv_slot = build.kvside.at(kv_key);
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

    // Transfers indexed by (receiver division) for launches/waits on this device.
    std::vector<std::vector<const TransferDesc*>> recv_by_div(
        static_cast<size_t>(t_count_));
    std::vector<std::vector<const TransferDesc*>> send_by_div(
        static_cast<size_t>(t_count_));
    for (const TransferDesc& t : transfers_) {
      if (t.kind != transfer_kind) {
        continue;
      }
      if (t.dst == d) {
        recv_by_div[static_cast<size_t>(t.division)].push_back(&t);
      }
      if (t.src == d) {
        send_by_div[static_cast<size_t>(t.division)].push_back(&t);
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
    plan.num_slots[static_cast<size_t>(BufKind::kO)] = build.n_local;
    plan.num_slots[static_cast<size_t>(BufKind::kAcc)] = build.n_qside + build.n_acc_stage;
    plan.num_slots[static_cast<size_t>(BufKind::kDO)] = build.n_qside;
    plan.num_slots[static_cast<size_t>(BufKind::kDelta)] = build.n_qside;
    plan.num_slots[static_cast<size_t>(BufKind::kDQ)] = build.n_qside + build.n_acc_stage;
    plan.num_slots[static_cast<size_t>(BufKind::kDKV)] =
        build.n_kvside + build.n_dkv_stage;

    // Local chunk table (slot == local index for every q-side buffer kind).
    for (const auto& [key, slot] : build.qside) {
      if (slot >= build.n_local) {
        continue;
      }
      const int gc = KeyChunk(key, layout_.num_groups);
      const TokenChunk& chunk = graph_.chunks[static_cast<size_t>(gc)];
      LocalChunk local;
      local.seq = chunk.seq;
      local.chunk = chunk.chunk;
      local.group = KeyGroup(key, layout_.num_groups);
      local.q_slot = slot;
      local.kv_slot = build.kvside.at(key);
      plan.local_chunks.push_back(local);
    }

    // Forward first: the pools hold items in stream order.
    EmitForward(d, plan);
    EmitBackward(d, plan);
  }

  void EmitForward(DeviceId d, DevicePlan& plan) const {
    const DeviceBuild& build = builds_[static_cast<size_t>(d)];
    std::vector<Instruction>& out = plan.instructions;
    EmitPipeline(d, /*backward=*/false, plan, out);

    // Epilogue: ship partial accumulators home, merge, finalize.
    for (const TransferDesc& t : transfers_) {
      if (t.kind != TransferDesc::Kind::kFwPartial) {
        continue;
      }
      if (t.src == d) {
        EmitCommLaunch(t, /*send=*/true, plan, out);
      }
      if (t.dst == d) {
        EmitCommLaunch(t, /*send=*/false, plan, out);
      }
    }
    for (const TransferDesc& t : transfers_) {
      if (t.kind != TransferDesc::Kind::kFwPartial || t.dst != d) {
        continue;
      }
      EmitCommWait(t, plan, out);
      Instruction& merge = plan.Append(out, InstrKind::kBlockwiseReduction);
      const auto& keys = build.partial_in.at(t.src);
      const auto& stages = build.acc_stage.at(t.src);
      for (size_t i = 0; i < keys.size(); ++i) {
        const int64_t len = ChunkLenOf(keys[i]);
        ReduceItem item;
        item.mode = ReduceMode::kMergeSoftmax;
        item.dst = {BufKind::kAcc, build.qside.at(keys[i])};
        item.src0 = {BufKind::kAcc, stages[i]};
        item.token_count = len;
        plan.Add(merge, item);
        merge.mem_bytes += 2 * layout_.AccBlockBytes(len);
      }
    }
    // Finalize all local outputs.
    if (build.n_local == 0) {
      return;
    }
    Instruction& finalize = plan.Append(out, InstrKind::kBlockwiseReduction);
    for (const auto& [key, slot] : build.qside) {
      if (slot >= build.n_local) {
        continue;
      }
      const int64_t len = ChunkLenOf(key);
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
    if (build.n_local > 0) {
      Instruction& delta = plan.Append(out, InstrKind::kBlockwiseReduction);
      for (const auto& [key, slot] : build.qside) {
        if (slot >= build.n_local) {
          continue;
        }
        const int64_t len = ChunkLenOf(key);
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
    for (const TransferDesc& t : transfers_) {
      if (t.kind != TransferDesc::Kind::kBwGrad) {
        continue;
      }
      if (t.src == d) {
        EmitCommLaunch(t, /*send=*/true, plan, out);
      }
      if (t.dst == d) {
        EmitCommLaunch(t, /*send=*/false, plan, out);
      }
    }
    for (const TransferDesc& t : transfers_) {
      if (t.kind != TransferDesc::Kind::kBwGrad || t.dst != d) {
        continue;
      }
      EmitCommWait(t, plan, out);
      Instruction& sum = plan.Append(out, InstrKind::kBlockwiseReduction);
      if (auto it = build.partial_in.find(t.src); it != build.partial_in.end()) {
        const auto& stages = build.acc_stage.at(t.src);
        for (size_t i = 0; i < it->second.size(); ++i) {
          const int64_t len = ChunkLenOf(it->second[i]);
          ReduceItem item;
          item.mode = ReduceMode::kSum;
          item.dst = {BufKind::kDQ, build.qside.at(it->second[i])};
          item.src0 = {BufKind::kDQ, stages[i]};
          item.token_count = len;
          plan.Add(sum, item);
          sum.mem_bytes += 2 * layout_.QBlockBytes(len);
        }
      }
      if (auto it = build.dkv_in.find(t.src); it != build.dkv_in.end()) {
        const auto& stages = build.dkv_stage.at(t.src);
        for (size_t i = 0; i < it->second.size(); ++i) {
          const int64_t len = ChunkLenOf(it->second[i]);
          ReduceItem item;
          item.mode = ReduceMode::kSum;
          item.dst = {BufKind::kDKV, build.kvside.at(it->second[i])};
          item.src0 = {BufKind::kDKV, stages[i]};
          item.token_count = len;
          plan.Add(sum, item);
          sum.mem_bytes += 2 * layout_.KvBlockBytes(len);
        }
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
  const int num_devices_;
  const int t_count_;

  std::vector<DeviceBuild> builds_;
  std::vector<TransferDesc> transfers_;
  int32_t next_transfer_id_ = 0;
};

}  // namespace

BatchPlan CompilePlan(const BlockGraph& graph, const PlacementResult& placement,
                      const ScheduleResult& schedule, const ClusterSpec& cluster) {
  PlanCompiler compiler(graph, placement, schedule, cluster);
  return compiler.Compile();
}

}  // namespace dcp
