#include "runtime/instructions.h"

namespace dcp {

std::string SerializePlanBinary(const BatchPlan& plan) {
  std::string out;
  out += std::to_string(plan.stats.num_chunks);  // Seeded drift: total_bytes never written.
  out += std::to_string(plan.stats.slots[0]);
  return out;
}

bool DeserializePlanBinary(const std::string& bytes, BatchPlan* plan) {
  plan->stats.total_bytes = 0;  // Seeded drift: num_chunks and slots never restored.
  (void)bytes;
  return true;
}

}  // namespace dcp
