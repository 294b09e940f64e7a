// Clean codec fixture: every PlanStats field is touched by both directions
// of the binary codec.
#pragma once

#include <cstdint>
#include <string>

namespace dcp {

struct PlanStats {
  int64_t total_bytes = 0;
  int64_t num_chunks = 0;
};

struct BatchPlan {
  PlanStats stats;
};

std::string SerializePlanBinary(const BatchPlan& plan);
bool DeserializePlanBinary(const std::string& bytes, BatchPlan* plan);

}  // namespace dcp
