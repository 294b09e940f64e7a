// Figure 7: applying ring attention to a shared-question mask causes imbalanced
// computation and redundant KV communication. The paper's example: 16 KV blocks on 4
// devices (zig-zag), 16 KV blocks transferred per ring step over 3 steps = 48, of which
// 38 are never used by the receiving device.
#include <cstdio>
#include <set>

#include "baselines/static_planner.h"
#include "common/table.h"
#include "core/planner.h"

namespace dcp {
namespace {

void Run() {
  std::printf("Figure 7: ring attention on a shared-question masked sequence\n\n");
  ClusterSpec cluster;
  cluster.num_nodes = 1;
  cluster.devices_per_node = 4;
  PlannerOptions options;
  options.block_size = 512;
  options.num_groups = 1;  // Count per-block transfers like the figure (one head group).
  options.heads_per_group = 8;
  options.head_dim = 128;
  // 16 chunks of 512 tokens; question = 2 blocks (12.5%), 4 answers of 3.5 blocks each —
  // the geometry of the paper's Fig. 7 drawing.
  const std::vector<int64_t> seqlens = {512 * 16};
  const MaskSpec mask = MaskSpec::SharedQuestion(4, 0.21875);

  BaselineResult ring =
      PlanBaseline(BaselineKind::kRfaZigZag, seqlens, mask, cluster, options);

  // Count transferred KV blocks and how many of them the receiving device actually uses.
  int transferred = 0;
  int used = 0;
  std::vector<Flops> flops(4, 0.0);
  for (int d = 0; d < ring.plan.num_devices(); ++d) {
    const DevicePlan& dev = ring.plan.devices[static_cast<size_t>(d)];
    std::set<int32_t> consumed_kv_slots;
    for (const Instruction& instr : dev.instructions) {
      if (instr.kind == InstrKind::kBlockwiseAttention) {
        flops[static_cast<size_t>(d)] += instr.flops;
        for (const AttentionWorkItem& item : dev.attn_items_of(instr)) {
          consumed_kv_slots.insert(item.kv_slot);
        }
      }
    }
    for (const Instruction& instr : dev.instructions) {
      if (instr.kind == InstrKind::kCommLaunch && !instr.is_send) {
        for (const TransferBlock& block : dev.blocks_of(instr)) {
          if (block.ref.kind == BufKind::kKV) {
            ++transferred;
            if (consumed_kv_slots.contains(block.ref.slot)) {
              ++used;
            }
          }
        }
      }
    }
  }
  std::printf("Ring attention: %d KV blocks transferred, %d used, %d redundant (%.0f%%)\n",
              transferred, used, transferred - used,
              100.0 * (transferred - used) / transferred);
  std::printf("Paper reference: 48 transferred, 38 redundant (79%%).\n\n");

  Table table({"Device", "Ring GFLOPs", "DCP GFLOPs"});
  std::vector<SequenceMask> masks = BuildBatchMasks(mask, seqlens);
  BatchPlan dcp = PlanBatch(seqlens, masks, cluster, options);
  std::vector<Flops> dcp_flops(4, 0.0);
  for (int d = 0; d < dcp.num_devices(); ++d) {
    for (const Instruction& instr : dcp.devices[static_cast<size_t>(d)].instructions) {
      if (instr.kind == InstrKind::kBlockwiseAttention) {
        dcp_flops[static_cast<size_t>(d)] += instr.flops;
      }
    }
  }
  for (int d = 0; d < 4; ++d) {
    table.AddRow({std::to_string(d), Table::Num(flops[static_cast<size_t>(d)] / 1e9, 2),
                  Table::Num(dcp_flops[static_cast<size_t>(d)] / 1e9, 2)});
  }
  table.Print();
  std::printf("\nDCP comm: %lld KV-equivalent bytes vs ring %lld bytes.\n",
              static_cast<long long>(dcp.stats.total_comm_bytes),
              static_cast<long long>(ring.plan.stats.total_comm_bytes));
  std::printf("Paper reference: static placement overloads the last device (the global "
              "test/answer region) while DCP balances compute and drops unused KV "
              "transfers.\n");
}

}  // namespace
}  // namespace dcp

int main() {
  dcp::Run();
  return 0;
}
