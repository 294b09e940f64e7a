#include "runtime/sim_engine.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "runtime/stream_progress.h"

namespace dcp {
namespace {

struct TransferState {
  double send_ready = -1.0;  // Time the sender posted the launch (< 0: not yet).
  double recv_ready = -1.0;
  Bytes bytes = 0;
  DeviceId src = kInvalidDevice;
  DeviceId dst = kInvalidDevice;
  double finish = 0.0;  // Set once both ends have posted.
};

// Channel key: intra-node transfers contend per (src, dst) device pair (NVSwitch gives
// every pair its own bandwidth); inter-node transfers serialize on the source node's NIC.
int64_t ChannelKey(const ClusterSpec& cluster, DeviceId src, DeviceId dst) {
  if (cluster.SameNode(src, dst)) {
    return (static_cast<int64_t>(src) << 24) | static_cast<int64_t>(dst);
  }
  return (int64_t{1} << 60) | static_cast<int64_t>(cluster.NodeOf(src));
}

}  // namespace

double SimResult::MeanExposedComm() const {
  double total = 0.0;
  for (const auto& dev : devices) {
    total += dev.comm_exposed;
  }
  return devices.empty() ? 0.0 : total / static_cast<double>(devices.size());
}

double SimResult::MeanOverlappedComm() const {
  double total = 0.0;
  for (const auto& dev : devices) {
    total += std::max(0.0, dev.comm_busy - dev.comm_exposed);
  }
  return devices.empty() ? 0.0 : total / static_cast<double>(devices.size());
}

double SimResult::MeanAttentionCompute() const {
  double total = 0.0;
  for (const auto& dev : devices) {
    total += dev.attention;
  }
  return devices.empty() ? 0.0 : total / static_cast<double>(devices.size());
}

double SimResult::MaxComputeBusy() const {
  double worst = 0.0;
  for (const auto& dev : devices) {
    worst = std::max(worst, dev.attention + dev.reduction + dev.overhead);
  }
  return worst;
}

SimResult SimEngine::Simulate(const BatchPlan& plan, bool backward) const {
  const ClusterSpec& cluster = cost_.cluster();
  const int num_devices = plan.num_devices();
  DCP_CHECK_LE(num_devices, cluster.num_devices());

  SimResult result;
  result.devices.assign(static_cast<size_t>(num_devices), DeviceTimeBreakdown{});
  std::unordered_map<int64_t, double> channel_free;

  const Status status = RunStreams<TransferState>(plan, backward, [&](DeviceId dev,
                                                                      const Instruction& instr,
                                                                      TransferState* t) {
    auto& breakdown = result.devices[static_cast<size_t>(dev)];
    double& now = breakdown.end_time;  // The device's clock.
    switch (instr.kind) {
      case InstrKind::kBlockwiseAttention: {
        const double launch = cost_.KernelLaunchSeconds() +
                              cost_.AttnStepOverheadSeconds(instr.backward) +
                              instr.host_overhead;
        // Roofline: compute plus the HBM traffic of re-reading tile operands.
        const double compute = cost_.AttentionSeconds(instr.flops) +
                               static_cast<double>(instr.mem_bytes) / (cluster.hbm_gbps * 1e9);
        breakdown.overhead += launch;
        breakdown.attention += compute;
        now += launch + compute;
        break;
      }
      case InstrKind::kBlockwiseReduction: {
        const double launch = cost_.KernelLaunchSeconds();
        const double compute = static_cast<double>(instr.mem_bytes) / (cluster.hbm_gbps * 1e9);
        breakdown.overhead += launch;
        breakdown.reduction += compute;
        now += launch + compute;
        break;
      }
      case InstrKind::kCommLaunch: {
        const double post = cluster.comm_launch_us * 1e-6;
        breakdown.overhead += post;
        now += post;
        if (instr.is_send) {
          t->send_ready = now;
          t->src = dev;
          t->bytes = instr.comm_bytes;
        } else {
          t->recv_ready = now;
          t->dst = dev;
        }
        if (t->send_ready < 0.0 || t->recv_ready < 0.0) {
          break;
        }
        // Both ends have posted: the transfer starts once its channel is free.
        double& free_at = channel_free[ChannelKey(cluster, t->src, t->dst)];
        const double start = std::max({t->send_ready, t->recv_ready, free_at});
        t->finish = start + cost_.ChannelLatencySeconds(t->src, t->dst) +
                    static_cast<double>(t->bytes) / cost_.ChannelBandwidth(t->src, t->dst);
        free_at = t->finish;
        result.devices[static_cast<size_t>(t->dst)].comm_busy += t->finish - start;
        break;
      }
      case InstrKind::kCommWait: {
        // Both ends have posted, so the transfer is scheduled.
        const double stall = std::max(0.0, t->finish - now);
        breakdown.comm_exposed += stall;
        now += stall;
        break;
      }
    }
  });
  DCP_CHECK(status.ok()) << "simulator " << status.message();

  for (const DeviceTimeBreakdown& dev : result.devices) {
    result.makespan = std::max(result.makespan, dev.end_time);
  }
  return result;
}

SimResult SimEngine::SimulateFwBw(const BatchPlan& plan) const {
  SimResult fw = Simulate(plan, /*backward=*/false);
  SimResult bw = Simulate(plan, /*backward=*/true);
  SimResult combined;
  combined.makespan = fw.makespan + bw.makespan;
  combined.devices = fw.devices;
  for (size_t d = 0; d < combined.devices.size(); ++d) {
    auto& out = combined.devices[d];
    const auto& add = bw.devices[d];
    out.attention += add.attention;
    out.reduction += add.reduction;
    out.overhead += add.overhead;
    out.comm_exposed += add.comm_exposed;
    out.comm_busy += add.comm_busy;
    out.end_time += add.end_time;
  }
  return combined;
}

}  // namespace dcp
