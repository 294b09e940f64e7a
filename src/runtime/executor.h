// Numeric executor: interprets a BatchPlan on real fp32 tensors, simulating every device of
// the cluster in one process. Device streams run cooperatively in the order, and under the
// one wait rule, of stream_progress.h: a CommWait runs once both CommLaunches of its
// transfer have run. A send launch captures its payload; the receiver's wait lands it.
// This is the correctness backend — the paper's fused-kernel executor with the GPU swapped
// out for CPU math (see DESIGN.md, substitution table).
#ifndef DCP_RUNTIME_EXECUTOR_H_
#define DCP_RUNTIME_EXECUTOR_H_

#include <span>
#include <vector>

#include "masks/mask.h"
#include "runtime/buffers.h"
#include "runtime/instructions.h"
#include "runtime/reference_attention.h"

namespace dcp {

class NumericExecutor {
 public:
  // `plan` and `masks` must outlive the executor. masks[s] is sequence s's mask.
  NumericExecutor(const BatchPlan* plan, const std::vector<SequenceMask>* masks);

  // Swaps in a new plan whose buffer geometry matches the installed one (same device
  // count and per-device slot counts — guaranteed when the plans share a PlanSignature)
  // without reallocating device buffers. The next RunForward/RunBackward resets
  // accumulators as usual.
  void Rebind(const BatchPlan* plan, const std::vector<SequenceMask>* masks);

  // Scatters per-sequence Q/K/V into device buffers according to the plan's placement.
  void LoadInputs(const std::vector<SeqTensors>& sequences);
  // Runs every device's forward instruction stream to completion.
  void RunForward();
  // Collects the attention outputs, one [H, L, D] tensor per sequence.
  std::vector<Tensor> GatherOutputs() const;

  // Backward: scatter dO, run backward streams (requires RunForward state), gather grads.
  void LoadOutputGrads(const std::vector<Tensor>& douts);
  void RunBackward();
  std::vector<SeqGrads> GatherInputGrads() const;

 private:
  // One transfer in flight: the payload captured at send launch, and where it lands.
  struct WireMessage {
    std::vector<float> payload;
    DeviceId recv_device = kInvalidDevice;
    std::span<const TransferBlock> recv_blocks;  // In the receiver's DevicePlan.
    bool delivered = false;
  };

  const DevicePlan& DeviceOf(DeviceId device) const {
    return plan_->devices[static_cast<size_t>(device)];
  }
  void RunProgram(bool backward);
  void ExecuteAttention(DeviceId device, const Instruction& instr);
  void ExecuteReduction(DeviceId device, const Instruction& instr);
  void ExecuteCommLaunch(DeviceId device, const Instruction& instr, WireMessage& msg);
  void ExecuteCommWait(DeviceId device, WireMessage& msg);

  const BatchPlan* plan_;
  const std::vector<SequenceMask>* masks_;
  std::vector<DeviceBuffers> buffers_;
};

}  // namespace dcp

#endif  // DCP_RUNTIME_EXECUTOR_H_
