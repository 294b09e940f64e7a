// Cluster topology and cost-model parameters.
//
// Defaults model the paper's testbed: Amazon EC2 p4de.24xlarge instances — 8 A100-80GB per
// node on NVSwitch (600 GB/s bidirectional), nodes connected by 4x100 Gbps EFA NICs. The
// discrete-event simulator prices every instruction with these parameters; all experiments
// report ratios between schedules, which is what this substitution preserves.
#ifndef DCP_RUNTIME_CLUSTER_H_
#define DCP_RUNTIME_CLUSTER_H_

#include <cstdint>

#include "common/types.h"

namespace dcp {

struct ClusterSpec {
  int num_nodes = 4;
  int devices_per_node = 8;

  // Effective attention-kernel throughput per device. A100 peak is 312 TFLOPS (bf16);
  // fused attention kernels sustain roughly half of that.
  double device_tflops = 150.0;
  // Throughput for dense (GEMM-heavy) context-independent layers.
  double dense_tflops = 220.0;

  // Per-direction point-to-point bandwidth between two devices in the same node (NVSwitch).
  double intra_node_gbps = 250.0;
  // Aggregate inter-node NIC bandwidth per node (4 x 100 Gbps EFA = 50 GB/s), shared by all
  // devices of the node.
  double node_nic_gbps = 50.0;

  double intra_latency_us = 5.0;
  double inter_latency_us = 25.0;

  // Device memory bandwidth (A100-80GB HBM2e ~2 TB/s; effective ~1.6 TB/s); prices
  // the HBM traffic of attention tiles and memory-bound reductions.
  double hbm_gbps = 1600.0;

  // Fixed overhead charged per compute instruction (kernel launch, argument setup).
  double kernel_launch_us = 15.0;
  // Fixed overhead of posting an async P2P send/recv.
  double comm_launch_us = 8.0;
  // Extra fixed overhead per attention step; the backward pass re-reads Q/KV, writes
  // gradients and reduces across blocks, so its per-step overhead is larger (paper §7.5).
  double attn_step_overhead_us = 40.0;
  double attn_bw_step_overhead_us = 110.0;

  int num_devices() const { return num_nodes * devices_per_node; }
  NodeId NodeOf(DeviceId device) const { return device / devices_per_node; }
  bool SameNode(DeviceId a, DeviceId b) const { return NodeOf(a) == NodeOf(b); }

  // The micro-benchmark testbed (§7.1): 4 p4de nodes, 32 GPUs, all in context parallelism.
  static ClusterSpec MicroBenchTestbed();
  // The end-to-end testbed (§7.2): 8 p4de nodes, 64 GPUs, TP=4 => 16-way context
  // parallelism with 2 CP ranks per node.
  static ClusterSpec EndToEndTestbed();
};

}  // namespace dcp

#endif  // DCP_RUNTIME_CLUSTER_H_
