// Planning-service wire messages: the request and response bodies dcp::PlanServer and
// dcp::PlanClient exchange inside frames (service/frame.h). They are encoded with the
// shared ByteWriter/ByteReader (common/bytes.h) and validated with the plan codec's
// rigor: every count is bounded against the remaining payload, enums are range-checked,
// and trailing bytes are rejected — a malformed message is a recoverable DATA_LOSS
// Status, never an abort. The compiled plan itself travels inside PlanServiceResponse
// as PlanStore record bytes (core/plan_store.h documents that layout), so the service's
// wire format is exactly the persistence format.
#ifndef DCP_SERVICE_MESSAGES_H_
#define DCP_SERVICE_MESSAGES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "masks/mask_spec.h"

namespace dcp {

// Where the service found the plan it returned. The client adds a fourth tier (its own
// LRU) that never reaches the wire.
enum class PlanServeSource : uint8_t {
  kPlanned = 0,        // The tenant engine ran the full planner.
  kMemoryCache,        // Served from the tenant engine's in-memory LRU.
  kStoreCache,         // Served from the tenant engine's persistent plan store.
  kClientCache,        // Client-side only: served from the PlanClient LRU, no RPC.
  kReplicaCache,       // Served from records another replica shipped via anti-entropy.
};
std::string PlanServeSourceName(PlanServeSource source);

struct PlanServiceRequest {
  std::string tenant;
  std::vector<int64_t> seqlens;
  MaskSpec mask_spec;
  // Explicit block size, or 0 to plan under the tenant's configured policy (fixed
  // engine block size, or per-signature auto-tune when the tenant enables it).
  int64_t block_size = 0;
  // Remaining time budget in milliseconds, or 0 for no deadline. Relative on purpose:
  // client and server clocks need not agree. The server timestamps arrival and sheds
  // the request (DEADLINE_EXCEEDED, no planning) once the budget has already expired —
  // planning dead work would only steal workers from live requests.
  int64_t deadline_ms = 0;
  // Trace id for per-request phase tracing (v3 field, 0 = untraced). Written after
  // every v2 field so a v2 body is exactly a v3 body minus this trailer, and a v3
  // reader accepts both.
  uint64_t trace_id = 0;
};

struct PlanServiceResponse {
  StatusCode code = StatusCode::kOk;
  std::string message;  // Error detail when code != kOk.
  PlanServeSource source = PlanServeSource::kPlanned;
  // The served plan's canonical signature (PlanSignature lanes) and its PlanStore
  // record bytes (magic + version + signature + plan payload + CRC32); both empty/zero
  // on error. The record's embedded signature is cross-checked against these lanes by
  // the client before the plan is trusted.
  uint64_t signature_lo = 0;
  uint64_t signature_hi = 0;
  std::string record;
};

// Anti-entropy exchange between replicas: the caller lists the plan signatures it
// already holds for one tenant, the callee replies with full PlanStore records (the
// wire format IS the persistence format) for a bounded number of signatures the caller
// lacks. Signatures travel as raw (lo, hi) lanes so this layer stays below core/.
struct PlanSyncRequest {
  std::string tenant;
  std::vector<std::pair<uint64_t, uint64_t>> have;
};

struct PlanSyncResponse {
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::vector<std::string> records;  // Validated by the receiver before adoption.
};

// Live metrics scrape (v3): the caller optionally narrows the families by name
// prefix; the callee replies with its process-global registry rendered in Prometheus
// text exposition format. Text on purpose — the scrape format is the stable contract,
// so the wire layer needs no per-instrument schema.
struct PlanServiceMetricsRequest {
  std::string name_prefix;  // Empty: every family.
};

struct PlanServiceMetricsResponse {
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::string text;  // Prometheus text exposition.
};

std::string SerializePlanServiceMetricsRequest(const PlanServiceMetricsRequest& request);
StatusOr<PlanServiceMetricsRequest> DeserializePlanServiceMetricsRequest(
    std::string_view bytes);
std::string SerializePlanServiceMetricsResponse(
    const PlanServiceMetricsResponse& response);
StatusOr<PlanServiceMetricsResponse> DeserializePlanServiceMetricsResponse(
    std::string_view bytes);

std::string SerializePlanSyncRequest(const PlanSyncRequest& request);
StatusOr<PlanSyncRequest> DeserializePlanSyncRequest(std::string_view bytes);
std::string SerializePlanSyncResponse(const PlanSyncResponse& response);
StatusOr<PlanSyncResponse> DeserializePlanSyncResponse(std::string_view bytes);

std::string SerializePlanServiceRequest(const PlanServiceRequest& request);
std::string SerializePlanServiceResponse(const PlanServiceResponse& response);

// Zero-copy view of a decoded plan request: `tenant` aliases the wire payload and
// `seqlens` aliases a caller-owned vector, so decoding costs at most one allocation
// (the seqlens array — its count is on the wire before its elements, so the vector is
// sized once, exactly) instead of two heap strings plus a vector per request. The
// payload bytes and the vector must both outlive the view, and decoding into the
// vector again invalidates it.
struct PlanServiceRequestView {
  std::string_view tenant;
  std::span<const int64_t> seqlens;
  MaskSpec mask_spec;
  int64_t block_size = 0;
  int64_t deadline_ms = 0;
  uint64_t trace_id = 0;  // v3 field; 0 when absent (v2 body) or untraced.
};

// The plan request decoder: reads what SerializePlanServiceRequest writes (v2 bodies
// without trace_id too) and rejects truncation, trailing bytes and bad fields.
StatusOr<PlanServiceRequestView> DeserializePlanServiceRequestView(
    std::string_view bytes, std::vector<int64_t>* seqlens);

// Zero-copy view of a decoded plan response: `message` and `record` alias the wire
// payload, which must outlive the view, so a client decodes its ~50 KB record straight
// from the frame that carried it.
struct PlanServiceResponseView {
  StatusCode code = StatusCode::kOk;
  std::string_view message;
  PlanServeSource source = PlanServeSource::kPlanned;
  uint64_t signature_lo = 0;
  uint64_t signature_hi = 0;
  std::string_view record;
};

// The plan response decoder: reads what SerializePlanServiceResponse (and the head +
// record the server writes) produces, and rejects truncation, trailing bytes and bad
// fields.
StatusOr<PlanServiceResponseView> DeserializePlanServiceResponseView(
    std::string_view bytes);
// The same decode, copied into an owning response (the dcpbench traced pass keeps the
// response past the frame's lifetime).
StatusOr<PlanServiceResponse> DeserializePlanServiceResponse(std::string_view bytes);

// Serializes every response field except the record bytes themselves, ending with the
// record-length prefix for a record of `record_size` bytes: head ++ record_bytes is
// SerializePlanServiceResponse on the same response carrying those bytes, which is
// built this way. The server writev's [frame header + this head][shared record][crc]
// so a cached record is framed without copying. `response.record` is not written; it
// must be empty or `record_size` bytes long.
std::string SerializePlanServiceResponseHead(const PlanServiceResponse& response,
                                             size_t record_size);

}  // namespace dcp

#endif  // DCP_SERVICE_MESSAGES_H_
