// Seeded codec fixture: LocalChunk and AttentionWorkItem share the field names
// `seq` and `kv_slot`. The binary deserializer writes a local chunk's kv_slot
// but not a tile's, so AttentionWorkItem.kv_slot must be flagged even though a
// member named kv_slot is touched.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dcp {

struct LocalChunk {
  int32_t seq = 0;
  int32_t kv_slot = 0;
};

struct AttentionWorkItem {
  int32_t seq = 0;
  int32_t kv_slot = 0;
};

struct DevicePlan {
  std::vector<LocalChunk> local_chunks;
  std::vector<AttentionWorkItem> attn_items;
};

struct BatchPlan {
  std::vector<DevicePlan> devices;
};

std::string SerializePlanBinary(const BatchPlan& plan);
bool DeserializePlanBinary(const std::string& bytes, BatchPlan* plan);

}  // namespace dcp
