// Static plan validation: the checks a BatchPlan must pass before execution. The planner
// validates every plan it emits (PlanBatch, in every build); tests, dcpctl and dcpbench
// call it too, and so can users who construct or deserialize plans from external sources.
#ifndef DCP_RUNTIME_PLAN_VALIDATE_H_
#define DCP_RUNTIME_PLAN_VALIDATE_H_

#include <string>
#include <vector>

#include "runtime/instructions.h"

namespace dcp {

struct PlanValidation {
  bool ok = true;
  std::vector<std::string> errors;

  void Fail(std::string message) {
    ok = false;
    errors.push_back(std::move(message));
  }
  std::string Summary() const;
};

// Checks, across all devices and both instruction streams (after one check that the
// layout's block size is positive, since every chunk count divides by it):
//  - each device's item pools are in canonical stream order (instructions.h): every
//    range is in bounds, starts where the previous instruction's range of its kind
//    ended (no overlap, no gap), and every pool item is referenced;
//  - every BlockRef is within its buffer's slot count;
//  - every transfer id lies below the plan's launch count and has exactly one send and
//    one recv launch, with matching block counts, byte totals and consistent peer fields;
//  - every CommWait refers to a transfer that is launched somewhere;
//  - every chunk home is a valid device; every local chunk names a (sequence, chunk,
//    group) of the layout, and its q_slot and kv_slot lie inside the slot counts of every
//    buffer kind they address; the local chunks partition the batch exactly;
//  - forward attention tiles are unique across the cluster (each computed exactly once);
//  - once all of the above hold: the forward and the backward streams each run to the end
//    under the one wait rule the simulator and the executor share (stream_progress.h),
//    so neither deadlocks on the plan. A stall is reported with the core's message, which
//    names each blocked device, its position and the transfer it waits on.
// Linear in the plan's size, and every table it allocates is sized by the plan's own
// item counts, not by counts its layout claims.
PlanValidation ValidatePlan(const BatchPlan& plan);

}  // namespace dcp

#endif  // DCP_RUNTIME_PLAN_VALIDATE_H_
