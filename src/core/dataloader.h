// The DCP data loader (paper §3.1 + §6.1): batches sequences, builds masks, and plans
// look-ahead iterations asynchronously on the Engine's thread pool so planning overlaps
// "model execution". Mirrors the paper's DCPDataloader(dataset, mask_fn) interface, with
// the session state (planner options, plan cache, pool) owned by a shared dcp::Engine —
// repeated batch shapes come back as cache hits, and plans travel through the lookahead
// queue as shared immutable handles instead of deep copies.
#ifndef DCP_CORE_DATALOADER_H_
#define DCP_CORE_DATALOADER_H_

#include <deque>
#include <future>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "core/engine.h"
#include "data/batching.h"
#include "masks/mask.h"
#include "runtime/cluster.h"

namespace dcp {

// One planned training iteration, ready for the executor. The compiled plan (instruction
// streams + masks + signature) is shared and immutable; pass `handle` straight to
// DcpExecutor::Prepare to get incremental buffer reuse on repeated signatures.
struct PlannedIteration {
  Batch batch;
  PlanHandle handle;

  const BatchPlan& plan() const { return handle->plan; }
  const std::vector<SequenceMask>& masks() const { return handle->masks; }
};

class DcpDataLoader {
 public:
  // Plans on any Planner: an Engine (shared with other loaders/tools so they see one
  // plan cache), or a service::PlanClient pointed at a remote planning service.
  // Look-ahead jobs run on the planner's pool either way, so planning (local or RPC)
  // still overlaps "model execution". `lookahead` is the paper's kappa: iterations
  // planned ahead of consumption. Each batch is planned with Planner::Plan, under the
  // planner's block-size policy (an Engine with options().auto_tune_block_size set
  // tunes it per batch signature).
  DcpDataLoader(BatchStream stream, MaskSpec mask_spec,
                std::shared_ptr<Planner> planner, int lookahead = 2);
  ~DcpDataLoader();

  // Blocks until the next iteration's plan is ready (usually instant once warmed up).
  PlannedIteration Next();

  // True while the look-ahead window is fully planned (for tests/diagnostics).
  int PendingPlans() const;

  Planner& planner() { return *planner_; }

 private:
  void EnqueueOne();

  BatchStream stream_;
  MaskSpec mask_spec_;
  std::shared_ptr<Planner> planner_;
  int lookahead_;
  std::deque<std::future<PlannedIteration>> pending_;

  // Look-ahead effectiveness: how long Next() blocked on an unfinished plan
  // (zero when planning fully hides behind "model execution"), how often it
  // had to block at all, how many look-ahead slots were already planned, and
  // how many transient remote failures the retry loop absorbed.
  metrics::Histogram* next_wait_us_ = nullptr;
  metrics::Counter* stalls_ = nullptr;
  metrics::Counter* retries_ = nullptr;
  metrics::Gauge* ready_ = nullptr;
};

}  // namespace dcp

#endif  // DCP_CORE_DATALOADER_H_
