#include "service/messages.h"

#include "common/bytes.h"
#include "common/check.h"

namespace dcp {

namespace {

// v2 added the request deadline and the replica-sync (anti-entropy) messages. v3 added
// the plan request's trailing trace_id and the metrics scrape messages; every v2 body
// parses unchanged under v3 (the request reader treats the trace_id as optional), so old
// clients keep working.
constexpr uint32_t kServiceMessageVersion = 3;
constexpr uint32_t kMinServiceMessageVersion = 2;
constexpr uint8_t kMaxMaskKind = static_cast<uint8_t>(MaskKind::kSharedQuestion);
constexpr uint8_t kMaxServeSource =
    static_cast<uint8_t>(PlanServeSource::kReplicaCache);
constexpr size_t kMaxTenantNameBytes = 256;
constexpr size_t kMaxStatusMessageBytes = 1 << 14;
constexpr size_t kMaxMetricNameBytes = 256;
// One signature in a sync request is two fixed-width u64 lanes.
constexpr size_t kSyncSignatureBytes = 16;

void WriteMaskSpecBin(ByteWriter& w, const MaskSpec& spec) {
  w.U8(static_cast<uint8_t>(spec.kind));
  w.Zig(spec.sink_tokens);
  w.Zig(spec.window_tokens);
  w.Zig(spec.icl_block_tokens);
  w.Zig(spec.window_blocks);
  w.Zig(spec.sink_blocks);
  w.Zig(spec.test_blocks);
  w.Zig(spec.num_answers);
  w.F64(spec.answer_fraction);
}

Status ReadMaskSpecBin(ByteReader& r, MaskSpec* spec) {
  const uint8_t kind = r.U8();
  if (kind > kMaxMaskKind) {
    return r.Fail("mask kind out of range");
  }
  spec->kind = static_cast<MaskKind>(kind);
  spec->sink_tokens = r.Zig();
  spec->window_tokens = r.Zig();
  spec->icl_block_tokens = r.Zig();
  spec->window_blocks = r.Zig();
  spec->sink_blocks = r.Zig();
  spec->test_blocks = r.Zig();
  spec->num_answers = r.Zig32("mask num_answers out of range");
  spec->answer_fraction = r.F64();
  return r.failed() ? r.TakeStatus() : Status::Ok();
}

// Every message body leads with the shared wire version; requests and responses evolve
// in lockstep with the service.
Status ReadMessageVersion(ByteReader& r, uint32_t* version_out = nullptr) {
  const uint32_t version = r.U32();
  if (r.failed()) {
    return r.TakeStatus();
  }
  if (version < kMinServiceMessageVersion || version > kServiceMessageVersion) {
    return r.Fail("unsupported message version " + std::to_string(version));
  }
  if (version_out != nullptr) {
    *version_out = version;
  }
  return Status::Ok();
}

Status ReadStatusCodeBin(ByteReader& r, StatusCode* code) {
  const uint8_t raw = r.U8();
  if (r.failed()) {
    return r.TakeStatus();
  }
  if (!IsValidStatusCode(raw)) {
    return r.Fail("status code out of range");
  }
  *code = static_cast<StatusCode>(raw);
  return Status::Ok();
}

Status RejectTrailing(ByteReader& r) {
  if (r.failed()) {
    return r.TakeStatus();
  }
  if (!r.AtEnd()) {
    return r.Fail("trailing garbage");
  }
  return Status::Ok();
}

}  // namespace

std::string PlanServeSourceName(PlanServeSource source) {
  switch (source) {
    case PlanServeSource::kPlanned:
      return "planned";
    case PlanServeSource::kMemoryCache:
      return "memory-cache";
    case PlanServeSource::kStoreCache:
      return "store-cache";
    case PlanServeSource::kClientCache:
      return "client-cache";
    case PlanServeSource::kReplicaCache:
      return "replica-cache";
  }
  return "unknown";
}

std::string SerializePlanServiceRequest(const PlanServiceRequest& request) {
  ByteWriter w;
  w.U32(kServiceMessageVersion);
  w.Str(request.tenant);
  w.Count(request.seqlens.size());
  for (int64_t len : request.seqlens) {
    w.Zig(len);
  }
  WriteMaskSpecBin(w, request.mask_spec);
  w.Zig(request.block_size);
  w.Zig(request.deadline_ms);
  w.U64(request.trace_id);
  return w.Take();
}

StatusOr<PlanServiceRequestView> DeserializePlanServiceRequestView(
    std::string_view bytes, std::vector<int64_t>* seqlens) {
  ByteReader r(bytes, "plan request");
  uint32_t version = 0;
  DCP_RETURN_IF_ERROR(ReadMessageVersion(r, &version));
  PlanServiceRequestView request;
  request.tenant = r.StrView(kMaxTenantNameBytes, "tenant name too long");
  const uint32_t num_seqs = r.BoundedCount(1, "request sequence count");
  if (r.failed()) {
    return r.TakeStatus();
  }
  // The count precedes the elements, so the vector is sized once, exactly — the
  // "one allocation per plan deserialization" contract.
  seqlens->resize(num_seqs);
  for (int64_t& len : *seqlens) {
    len = r.Zig();
  }
  request.seqlens = *seqlens;
  DCP_RETURN_IF_ERROR(ReadMaskSpecBin(r, &request.mask_spec));
  request.block_size = r.Zig();
  request.deadline_ms = r.Zig();
  if (!r.failed() && request.deadline_ms < 0) {
    return r.Fail("negative request deadline");
  }
  if (version >= 3) {
    request.trace_id = r.U64();
  }
  DCP_RETURN_IF_ERROR(RejectTrailing(r));
  return request;
}

std::string SerializePlanServiceResponse(const PlanServiceResponse& response) {
  std::string out = SerializePlanServiceResponseHead(response, response.record.size());
  out += response.record;
  return out;
}

std::string SerializePlanServiceResponseHead(const PlanServiceResponse& response,
                                             size_t record_size) {
  // Everything up to and including the record's length prefix; the record bytes
  // themselves ride as a separate iovec (FrameParts::body), so appending them here
  // yields exactly SerializePlanServiceResponse's output.
  DCP_CHECK(response.record.empty() || response.record.size() == record_size)
      << "the head's record length must be the record's";
  ByteWriter w;
  w.U32(kServiceMessageVersion);
  w.U8(static_cast<uint8_t>(response.code));
  w.Str(response.message);
  w.U8(static_cast<uint8_t>(response.source));
  w.U64(response.signature_lo);
  w.U64(response.signature_hi);
  w.Count(record_size);
  return w.Take();
}

StatusOr<PlanServiceResponseView> DeserializePlanServiceResponseView(
    std::string_view bytes) {
  ByteReader r(bytes, "plan response");
  DCP_RETURN_IF_ERROR(ReadMessageVersion(r));
  PlanServiceResponseView response;
  DCP_RETURN_IF_ERROR(ReadStatusCodeBin(r, &response.code));
  response.message = r.StrView(kMaxStatusMessageBytes, "status message too long");
  const uint8_t source = r.U8();
  if (r.failed()) {
    return r.TakeStatus();
  }
  if (source > kMaxServeSource) {
    return r.Fail("serve source out of range");
  }
  response.source = static_cast<PlanServeSource>(source);
  response.signature_lo = r.U64();
  response.signature_hi = r.U64();
  // The record is CRC-guarded internally (PlanStore::DecodeRecord); here it only needs
  // to fit in the remaining payload.
  response.record = r.StrView(bytes.size(), "plan record exceeds message");
  DCP_RETURN_IF_ERROR(RejectTrailing(r));
  return response;
}

StatusOr<PlanServiceResponse> DeserializePlanServiceResponse(std::string_view bytes) {
  StatusOr<PlanServiceResponseView> view = DeserializePlanServiceResponseView(bytes);
  if (!view.ok()) {
    return view.status();
  }
  const PlanServiceResponseView& v = view.value();
  PlanServiceResponse response;
  response.code = v.code;
  response.message = std::string(v.message);
  response.source = v.source;
  response.signature_lo = v.signature_lo;
  response.signature_hi = v.signature_hi;
  response.record = std::string(v.record);
  return response;
}

std::string SerializePlanServiceMetricsRequest(
    const PlanServiceMetricsRequest& request) {
  ByteWriter w;
  w.U32(kServiceMessageVersion);
  w.Str(request.name_prefix);
  return w.Take();
}

StatusOr<PlanServiceMetricsRequest> DeserializePlanServiceMetricsRequest(
    std::string_view bytes) {
  ByteReader r(bytes, "metrics request");
  DCP_RETURN_IF_ERROR(ReadMessageVersion(r));
  PlanServiceMetricsRequest request;
  request.name_prefix = r.Str(kMaxMetricNameBytes, "metric name prefix too long");
  DCP_RETURN_IF_ERROR(RejectTrailing(r));
  return request;
}

std::string SerializePlanServiceMetricsResponse(
    const PlanServiceMetricsResponse& response) {
  ByteWriter w;
  w.U32(kServiceMessageVersion);
  w.U8(static_cast<uint8_t>(response.code));
  w.Str(response.message);
  w.Str(response.text);
  return w.Take();
}

StatusOr<PlanServiceMetricsResponse> DeserializePlanServiceMetricsResponse(
    std::string_view bytes) {
  ByteReader r(bytes, "metrics response");
  DCP_RETURN_IF_ERROR(ReadMessageVersion(r));
  PlanServiceMetricsResponse response;
  DCP_RETURN_IF_ERROR(ReadStatusCodeBin(r, &response.code));
  response.message = r.Str(kMaxStatusMessageBytes, "status message too long");
  // The rendered exposition only needs to fit in the frame payload.
  response.text = r.Str(bytes.size(), "metrics text exceeds message");
  DCP_RETURN_IF_ERROR(RejectTrailing(r));
  return response;
}

std::string SerializePlanSyncRequest(const PlanSyncRequest& request) {
  ByteWriter w;
  w.U32(kServiceMessageVersion);
  w.Str(request.tenant);
  w.Count(request.have.size());
  for (const auto& sig : request.have) {
    w.U64(sig.first);
    w.U64(sig.second);
  }
  return w.Take();
}

StatusOr<PlanSyncRequest> DeserializePlanSyncRequest(std::string_view bytes) {
  ByteReader r(bytes, "sync request");
  DCP_RETURN_IF_ERROR(ReadMessageVersion(r));
  PlanSyncRequest request;
  request.tenant = r.Str(kMaxTenantNameBytes, "tenant name too long");
  const uint32_t num_have = r.BoundedCount(kSyncSignatureBytes, "sync signature count");
  if (r.failed()) {
    return r.TakeStatus();
  }
  request.have.reserve(num_have);
  for (uint32_t i = 0; i < num_have; ++i) {
    const uint64_t lo = r.U64();
    const uint64_t hi = r.U64();
    request.have.emplace_back(lo, hi);
  }
  DCP_RETURN_IF_ERROR(RejectTrailing(r));
  return request;
}

std::string SerializePlanSyncResponse(const PlanSyncResponse& response) {
  ByteWriter w;
  w.U32(kServiceMessageVersion);
  w.U8(static_cast<uint8_t>(response.code));
  w.Str(response.message);
  w.Count(response.records.size());
  for (const std::string& record : response.records) {
    w.Str(record);
  }
  return w.Take();
}

StatusOr<PlanSyncResponse> DeserializePlanSyncResponse(std::string_view bytes) {
  ByteReader r(bytes, "sync response");
  DCP_RETURN_IF_ERROR(ReadMessageVersion(r));
  PlanSyncResponse response;
  DCP_RETURN_IF_ERROR(ReadStatusCodeBin(r, &response.code));
  response.message = r.Str(kMaxStatusMessageBytes, "status message too long");
  const uint32_t num_records = r.BoundedCount(1, "sync record count");
  if (r.failed()) {
    return r.TakeStatus();
  }
  response.records.reserve(num_records);
  for (uint32_t i = 0; i < num_records; ++i) {
    // Each record is CRC-guarded internally (PlanStore::DecodeRecord validates before
    // adoption); here it only needs to fit in the remaining payload.
    response.records.push_back(r.Str(bytes.size(), "sync record exceeds message"));
    if (r.failed()) {
      return r.TakeStatus();
    }
  }
  DCP_RETURN_IF_ERROR(RejectTrailing(r));
  return response;
}

}  // namespace dcp
