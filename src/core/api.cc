#include "core/api.h"

#include "common/check.h"

namespace dcp {

void DcpExecutor::Prepare(const PlanHandle& handle) {
  DCP_CHECK(handle != nullptr) << "Prepare called with a null plan handle";
  ++prepare_count_;
  const bool same_signature = exec_ != nullptr && installed_ != nullptr &&
                              !handle->signature.IsZero() &&
                              installed_->signature == handle->signature;
  if (same_signature) {
    // Identical signature => bit-identical plan and buffer geometry: rebind in place,
    // keeping the allocated device buffers.
    exec_->Rebind(&handle->plan, &handle->masks);
    ++buffer_reuse_count_;
  } else {
    exec_ = std::make_unique<NumericExecutor>(&handle->plan, &handle->masks);
  }
  installed_ = handle;
}

const BatchPlan& DcpExecutor::plan() const {
  DCP_CHECK(exec_ != nullptr) << "DcpExecutor::Prepare not called";
  return installed_->plan;
}

NumericExecutor& DcpExecutor::numeric() {
  DCP_CHECK(exec_ != nullptr) << "DcpExecutor::Prepare not called";
  return *exec_;
}

std::vector<Tensor> DcpAttention::Forward(DcpExecutor& executor,
                                          const std::vector<SeqTensors>& inputs) {
  NumericExecutor& exec = executor.numeric();
  exec.LoadInputs(inputs);
  exec.RunForward();
  return exec.GatherOutputs();
}

std::vector<SeqGrads> DcpAttention::Backward(DcpExecutor& executor,
                                             const std::vector<Tensor>& douts) {
  NumericExecutor& exec = executor.numeric();
  exec.LoadOutputGrads(douts);
  exec.RunBackward();
  return exec.GatherInputGrads();
}

}  // namespace dcp
