// Seeded codec fixture: the binary deserializer drops num_chunks and the
// brace-initialised slots, and the binary serializer drops total_bytes — each
// direction must be flagged independently, anchored at the field's
// declaration line. A `= {}` initialiser must not hide a field.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace dcp {

struct PlanStats {
  int64_t total_bytes = 0;
  int64_t num_chunks = 0;
  std::array<int32_t, 2> slots = {};
};

struct BatchPlan {
  PlanStats stats;
};

std::string SerializePlanBinary(const BatchPlan& plan);
bool DeserializePlanBinary(const std::string& bytes, BatchPlan* plan);

}  // namespace dcp
