// Discrete-event simulator: prices a BatchPlan on the cluster cost model. Devices run their
// streams in the order and under the one wait rule of stream_progress.h: a CommWait runs once
// both CommLaunches of its transfer have run. A transfer starts once both ends have posted and
// its channel is free (intra-node transfers contend per device pair, inter-node ones on the
// source node's NIC). CommWait stalls are the *exposed* communication the figures decompose.
#ifndef DCP_RUNTIME_SIM_ENGINE_H_
#define DCP_RUNTIME_SIM_ENGINE_H_

#include <vector>

#include "runtime/cost_model.h"
#include "runtime/instructions.h"

namespace dcp {

struct DeviceTimeBreakdown {
  double attention = 0.0;     // Attention kernel busy time.
  double reduction = 0.0;     // Reduction kernel busy time.
  double overhead = 0.0;      // Kernel-launch / comm-post fixed overheads.
  double comm_exposed = 0.0;  // Stall time at CommWait (non-overlapped communication).
  double comm_busy = 0.0;     // Total wire time of transfers received by this device.
  double end_time = 0.0;
};

struct SimResult {
  double makespan = 0.0;
  std::vector<DeviceTimeBreakdown> devices;

  // Aggregates used by the figure benches.
  double MeanExposedComm() const;
  double MeanOverlappedComm() const;  // comm_busy - comm_exposed, clamped at 0, averaged.
  double MeanAttentionCompute() const;
  double MaxComputeBusy() const;
};

class SimEngine {
 public:
  explicit SimEngine(const CostModel& cost) : cost_(cost) {}

  // Simulates the forward (or backward) instruction streams of `plan`.
  SimResult Simulate(const BatchPlan& plan, bool backward) const;
  // Convenience: forward + backward makespans summed, with breakdowns merged.
  SimResult SimulateFwBw(const BatchPlan& plan) const;

 private:
  CostModel cost_;
};

}  // namespace dcp

#endif  // DCP_RUNTIME_SIM_ENGINE_H_
