// User-facing facade mirroring the paper's Listing 2 over the session-scoped
// dcp::Engine (core/engine.h), which owns the planner configuration, the
// look-ahead thread pool, and the signature-keyed compiled-plan cache:
//
//   auto engine = std::make_shared<Engine>(cluster, engine_options);
//   DcpDataLoader loader(stream, mask_spec, engine);   // dataset + mask_fn
//   DcpExecutor executor;                              // shared across layers
//   for (...) {
//     PlannedIteration it = loader.Next();             // repeated batches hit the cache
//     executor.Prepare(it.handle);                     // same signature: buffers reused
//     auto out = DcpAttention::Forward(executor, inputs);   // inside the model
//     auto grads = DcpAttention::Backward(executor, dout);
//   }
#ifndef DCP_CORE_API_H_
#define DCP_CORE_API_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dataloader.h"
#include "core/engine.h"
#include "runtime/executor.h"

namespace dcp {

// Holds the current iteration's execution plan and device buffers; the model calls
// attention through it (one instance shared by all layers, as in the paper).
class DcpExecutor {
 public:
  DcpExecutor() = default;

  // Installs a compiled plan for the upcoming iteration. When the handle's signature
  // matches the installed one (a plan-cache hit on a repeated batch), the device
  // buffers are kept and the executor is rebound in place instead of reallocated.
  void Prepare(const PlanHandle& handle);

  bool ready() const { return exec_ != nullptr; }
  const BatchPlan& plan() const;
  NumericExecutor& numeric();

  // Observability for tests and benches: how many Prepare calls reused the installed
  // device buffers instead of reallocating them.
  int64_t prepare_count() const { return prepare_count_; }
  int64_t buffer_reuse_count() const { return buffer_reuse_count_; }

 private:
  PlanHandle installed_;
  std::unique_ptr<NumericExecutor> exec_;
  int64_t prepare_count_ = 0;
  int64_t buffer_reuse_count_ = 0;
};

// The drop-in attention op (paper Listing 2, DCPAttn.apply).
class DcpAttention {
 public:
  // inputs[s] holds Q/K/V of sequence s; returns O per sequence.
  static std::vector<Tensor> Forward(DcpExecutor& executor,
                                     const std::vector<SeqTensors>& inputs);
  // douts[s] is dL/dO of sequence s; returns input gradients per sequence.
  static std::vector<SeqGrads> Backward(DcpExecutor& executor,
                                        const std::vector<Tensor>& douts);
};

}  // namespace dcp

#endif  // DCP_CORE_API_H_
