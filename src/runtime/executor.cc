#include "runtime/executor.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "runtime/attention_kernel.h"
#include "runtime/stream_progress.h"

namespace dcp {

NumericExecutor::NumericExecutor(const BatchPlan* plan,
                                 const std::vector<SequenceMask>* masks)
    : plan_(plan), masks_(masks) {
  DCP_CHECK(plan != nullptr && masks != nullptr);
  DCP_CHECK_EQ(static_cast<int>(masks->size()), plan->layout.num_sequences());
  buffers_.reserve(plan->devices.size());
  for (const DevicePlan& dev : plan->devices) {
    buffers_.emplace_back(plan->layout, dev.num_slots);
  }
}

void NumericExecutor::Rebind(const BatchPlan* plan,
                             const std::vector<SequenceMask>* masks) {
  DCP_CHECK(plan != nullptr && masks != nullptr);
  DCP_CHECK_EQ(static_cast<int>(masks->size()), plan->layout.num_sequences());
  DCP_CHECK_EQ(plan->num_devices(), static_cast<int>(buffers_.size()));
  DCP_CHECK(!buffers_.empty());
  // Slot geometry (and LoadInputs strides) are functions of the layout: the incoming
  // plan must address buffers exactly like the one they were allocated for.
  const BatchLayout& installed = buffers_.front().layout();
  DCP_CHECK(plan->layout.seqlens == installed.seqlens);
  DCP_CHECK_EQ(plan->layout.block_size, installed.block_size);
  DCP_CHECK_EQ(plan->layout.num_groups, installed.num_groups);
  DCP_CHECK_EQ(plan->layout.heads_per_group, installed.heads_per_group);
  DCP_CHECK_EQ(plan->layout.head_dim, installed.head_dim);
  for (int dev = 0; dev < plan->num_devices(); ++dev) {
    const DevicePlan& device = plan->devices[static_cast<size_t>(dev)];
    const DeviceBuffers& buf = buffers_[static_cast<size_t>(dev)];
    for (int k = 0; k < kNumBufKinds; ++k) {
      DCP_CHECK_EQ(device.num_slots[static_cast<size_t>(k)],
                   buf.NumSlots(static_cast<BufKind>(k)))
          << "Rebind with mismatched buffer geometry on device " << dev;
    }
  }
  plan_ = plan;
  masks_ = masks;
}

void NumericExecutor::LoadInputs(const std::vector<SeqTensors>& sequences) {
  const BatchLayout& layout = plan_->layout;
  DCP_CHECK_EQ(static_cast<int>(sequences.size()), layout.num_sequences());
  const int hg = layout.heads_per_group;
  const int64_t bs = layout.block_size;
  const int d = layout.head_dim;
  for (int dev = 0; dev < plan_->num_devices(); ++dev) {
    DeviceBuffers& buf = buffers_[static_cast<size_t>(dev)];
    for (const LocalChunk& chunk : plan_->devices[static_cast<size_t>(dev)].local_chunks) {
      const SeqTensors& seq = sequences[static_cast<size_t>(chunk.seq)];
      const int64_t begin = layout.ChunkBegin(chunk.seq, chunk.chunk);
      const int64_t len = layout.ChunkLen(chunk.seq, chunk.chunk);
      const int64_t seq_len = seq.length();
      std::span<float> q_slot = buf.Slot({BufKind::kQ, chunk.q_slot});
      for (int h = 0; h < hg; ++h) {
        const int64_t global_head = static_cast<int64_t>(chunk.group) * hg + h;
        const float* src = seq.q.data() + (global_head * seq_len + begin) * d;
        float* dst = q_slot.data() + static_cast<int64_t>(h) * bs * d;
        std::memcpy(dst, src, static_cast<size_t>(len * d) * sizeof(float));
      }
      std::span<float> kv_slot = buf.Slot({BufKind::kKV, chunk.kv_slot});
      const float* k_src =
          seq.k.data() + (static_cast<int64_t>(chunk.group) * seq_len + begin) * d;
      const float* v_src =
          seq.v.data() + (static_cast<int64_t>(chunk.group) * seq_len + begin) * d;
      std::memcpy(kv_slot.data(), k_src, static_cast<size_t>(len * d) * sizeof(float));
      std::memcpy(kv_slot.data() + bs * d, v_src,
                  static_cast<size_t>(len * d) * sizeof(float));
    }
  }
}

void NumericExecutor::RunForward() {
  for (DeviceBuffers& buf : buffers_) {
    buf.ResetAccumulators();
  }
  RunProgram(/*backward=*/false);
}

void NumericExecutor::RunBackward() {
  for (DeviceBuffers& buf : buffers_) {
    buf.ResetGradients();
  }
  RunProgram(/*backward=*/true);
}

void NumericExecutor::RunProgram(bool backward) {
  const Status status = RunStreams<WireMessage>(*plan_, backward, [&](DeviceId device,
                                                                       const Instruction& instr,
                                                                       WireMessage* msg) {
    switch (instr.kind) {
      case InstrKind::kBlockwiseAttention: return ExecuteAttention(device, instr);
      case InstrKind::kBlockwiseReduction: return ExecuteReduction(device, instr);
      case InstrKind::kCommLaunch: return ExecuteCommLaunch(device, instr, *msg);
      case InstrKind::kCommWait: return ExecuteCommWait(device, *msg);
    }
  });
  DCP_CHECK(status.ok()) << "executor " << status.message();
}

void NumericExecutor::ExecuteAttention(DeviceId device, const Instruction& instr) {
  const BatchLayout& layout = plan_->layout;
  DeviceBuffers& buf = buffers_[static_cast<size_t>(device)];
  for (const AttentionWorkItem& item : DeviceOf(device).attn_items_of(instr)) {
    const SequenceMask& mask = (*masks_)[static_cast<size_t>(item.seq)];
    TileArgs args;
    args.heads = layout.heads_per_group;
    args.block_size = layout.block_size;
    args.head_dim = layout.head_dim;
    args.q_begin = layout.ChunkBegin(item.seq, item.q_chunk);
    args.q_end = layout.ChunkEnd(item.seq, item.q_chunk);
    args.kv_begin = layout.ChunkBegin(item.seq, item.kv_chunk);
    args.kv_end = layout.ChunkEnd(item.seq, item.kv_chunk);
    args.full = item.full;
    if (!instr.backward) {
      AttentionTileForward(mask, args, buf.Slot(item.q()), buf.Slot(item.kv()),
                           buf.Slot(item.acc()));
    } else {
      AttentionTileBackward(mask, args, buf.Slot(item.q()), buf.Slot(item.kv()),
                            buf.Slot(item.acc()), buf.Slot(item.dout()),
                            buf.Slot(item.delta()), buf.Slot(item.dq()),
                            buf.Slot(item.dkv()));
    }
  }
}

void NumericExecutor::ExecuteReduction(DeviceId device, const Instruction& instr) {
  const BatchLayout& layout = plan_->layout;
  DeviceBuffers& buf = buffers_[static_cast<size_t>(device)];
  const int hg = layout.heads_per_group;
  const int64_t bs = layout.block_size;
  const int d = layout.head_dim;
  for (const ReduceItem& item : DeviceOf(device).reduce_items_of(instr)) {
    switch (item.mode) {
      case ReduceMode::kMergeSoftmax:
        MergeSoftmaxAccumulators(buf.Slot(item.dst), buf.Slot(item.src0), hg, bs, d,
                                 item.token_count);
        break;
      case ReduceMode::kFinalize:
        FinalizeOutput(buf.Slot(item.src0), buf.Slot(item.dst), hg, bs, d,
                       item.token_count);
        break;
      case ReduceMode::kSum: {
        std::span<float> dst = buf.Slot(item.dst);
        std::span<const float> src = buf.Slot(item.src0);
        DCP_CHECK_EQ(dst.size(), src.size());
        for (size_t i = 0; i < dst.size(); ++i) {
          dst[i] += src[i];
        }
        break;
      }
      case ReduceMode::kComputeDelta:
        ComputeDelta(buf.Slot(item.src0), buf.Slot(item.src1), buf.Slot(item.dst), hg, bs,
                     d, item.token_count);
        break;
    }
  }
}

void NumericExecutor::ExecuteCommLaunch(DeviceId device, const Instruction& instr,
                                        WireMessage& msg) {
  if (instr.is_send) {
    DeviceBuffers& buf = buffers_[static_cast<size_t>(device)];
    for (const TransferBlock& block : DeviceOf(device).blocks_of(instr)) {
      std::span<const float> slot = buf.Slot(block.ref);
      msg.payload.insert(msg.payload.end(), slot.begin(), slot.end());
    }
  } else {
    msg.recv_device = device;
    msg.recv_blocks = DeviceOf(device).blocks_of(instr);
  }
}

void NumericExecutor::ExecuteCommWait(DeviceId device, WireMessage& msg) {
  // Both ends have launched. Sends complete at launch, so only the receiver's first wait
  // has work: it lands the payload in the recv blocks.
  if (device != msg.recv_device || msg.delivered) {
    return;
  }
  DeviceBuffers& buf = buffers_[static_cast<size_t>(device)];
  size_t offset = 0;
  for (const TransferBlock& block : msg.recv_blocks) {
    std::span<float> slot = buf.Slot(block.ref);
    DCP_CHECK_LE(offset + slot.size(), msg.payload.size());
    std::memcpy(slot.data(), msg.payload.data() + offset, slot.size() * sizeof(float));
    offset += slot.size();
  }
  DCP_CHECK_EQ(offset, msg.payload.size());
  msg.delivered = true;
}

std::vector<Tensor> NumericExecutor::GatherOutputs() const {
  const BatchLayout& layout = plan_->layout;
  const int hg = layout.heads_per_group;
  const int64_t bs = layout.block_size;
  const int d = layout.head_dim;
  std::vector<Tensor> outputs;
  outputs.reserve(layout.seqlens.size());
  for (int64_t len : layout.seqlens) {
    outputs.push_back(Tensor::Zeros({layout.num_query_heads(), len, d}));
  }
  for (int dev = 0; dev < plan_->num_devices(); ++dev) {
    const DeviceBuffers& buf = buffers_[static_cast<size_t>(dev)];
    for (const LocalChunk& chunk : plan_->devices[static_cast<size_t>(dev)].local_chunks) {
      const int64_t begin = layout.ChunkBegin(chunk.seq, chunk.chunk);
      const int64_t len = layout.ChunkLen(chunk.seq, chunk.chunk);
      const int64_t seq_len = layout.seqlens[static_cast<size_t>(chunk.seq)];
      std::span<const float> o_slot = buf.Slot({BufKind::kO, chunk.q_slot});
      Tensor& out = outputs[static_cast<size_t>(chunk.seq)];
      for (int h = 0; h < hg; ++h) {
        const int64_t global_head = static_cast<int64_t>(chunk.group) * hg + h;
        float* dst = out.data() + (global_head * seq_len + begin) * d;
        const float* src = o_slot.data() + static_cast<int64_t>(h) * bs * d;
        std::memcpy(dst, src, static_cast<size_t>(len * d) * sizeof(float));
      }
    }
  }
  return outputs;
}

void NumericExecutor::LoadOutputGrads(const std::vector<Tensor>& douts) {
  const BatchLayout& layout = plan_->layout;
  DCP_CHECK_EQ(douts.size(), layout.seqlens.size());
  const int hg = layout.heads_per_group;
  const int64_t bs = layout.block_size;
  const int d = layout.head_dim;
  for (int dev = 0; dev < plan_->num_devices(); ++dev) {
    DeviceBuffers& buf = buffers_[static_cast<size_t>(dev)];
    for (const LocalChunk& chunk : plan_->devices[static_cast<size_t>(dev)].local_chunks) {
      const int64_t begin = layout.ChunkBegin(chunk.seq, chunk.chunk);
      const int64_t len = layout.ChunkLen(chunk.seq, chunk.chunk);
      const int64_t seq_len = layout.seqlens[static_cast<size_t>(chunk.seq)];
      std::span<float> do_slot = buf.Slot({BufKind::kDO, chunk.q_slot});
      const Tensor& dout = douts[static_cast<size_t>(chunk.seq)];
      for (int h = 0; h < hg; ++h) {
        const int64_t global_head = static_cast<int64_t>(chunk.group) * hg + h;
        const float* src = dout.data() + (global_head * seq_len + begin) * d;
        float* dst = do_slot.data() + static_cast<int64_t>(h) * bs * d;
        std::memcpy(dst, src, static_cast<size_t>(len * d) * sizeof(float));
      }
    }
  }
}

std::vector<SeqGrads> NumericExecutor::GatherInputGrads() const {
  const BatchLayout& layout = plan_->layout;
  const int hg = layout.heads_per_group;
  const int64_t bs = layout.block_size;
  const int d = layout.head_dim;
  std::vector<SeqGrads> grads;
  grads.reserve(layout.seqlens.size());
  for (int64_t len : layout.seqlens) {
    SeqGrads g;
    g.dq = Tensor::Zeros({layout.num_query_heads(), len, d});
    g.dk = Tensor::Zeros({layout.num_groups, len, d});
    g.dv = Tensor::Zeros({layout.num_groups, len, d});
    grads.push_back(std::move(g));
  }
  for (int dev = 0; dev < plan_->num_devices(); ++dev) {
    const DeviceBuffers& buf = buffers_[static_cast<size_t>(dev)];
    for (const LocalChunk& chunk : plan_->devices[static_cast<size_t>(dev)].local_chunks) {
      const int64_t begin = layout.ChunkBegin(chunk.seq, chunk.chunk);
      const int64_t len = layout.ChunkLen(chunk.seq, chunk.chunk);
      const int64_t seq_len = layout.seqlens[static_cast<size_t>(chunk.seq)];
      SeqGrads& g = grads[static_cast<size_t>(chunk.seq)];
      std::span<const float> dq_slot = buf.Slot({BufKind::kDQ, chunk.q_slot});
      for (int h = 0; h < hg; ++h) {
        const int64_t global_head = static_cast<int64_t>(chunk.group) * hg + h;
        float* dst = g.dq.data() + (global_head * seq_len + begin) * d;
        const float* src = dq_slot.data() + static_cast<int64_t>(h) * bs * d;
        std::memcpy(dst, src, static_cast<size_t>(len * d) * sizeof(float));
      }
      std::span<const float> dkv_slot = buf.Slot({BufKind::kDKV, chunk.kv_slot});
      float* dk_dst =
          g.dk.data() + (static_cast<int64_t>(chunk.group) * seq_len + begin) * d;
      float* dv_dst =
          g.dv.data() + (static_cast<int64_t>(chunk.group) * seq_len + begin) * d;
      std::memcpy(dk_dst, dkv_slot.data(), static_cast<size_t>(len * d) * sizeof(float));
      std::memcpy(dv_dst, dkv_slot.data() + bs * d,
                  static_cast<size_t>(len * d) * sizeof(float));
    }
  }
  return grads;
}

}  // namespace dcp
