#include "service/frame.h"

#include <utility>

#include "common/bytes.h"
#include "common/crc32.h"

namespace dcp {
namespace {

constexpr uint32_t kFrameMagic = 0x66504344;  // "DCPf" little-endian.
constexpr size_t kHeaderBytes = 16;

bool IsKnownFrameType(uint32_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kPlanRequest:
    case FrameType::kPlanResponse:
    case FrameType::kErrorResponse:
    case FrameType::kSyncRequest:
    case FrameType::kSyncResponse:
    case FrameType::kMetricsRequest:
    case FrameType::kMetricsResponse:
      return true;
  }
  return false;
}

// Checks a 16-byte frame header (magic, known type, bounded length) before any payload
// byte is read or buffered; both readers share it so they reject with one vocabulary.
Status ParseFrameHeader(const char* header, uint64_t max_payload_bytes, FrameType* type,
                        uint64_t* length) {
  ByteReader r(std::string_view(header, kHeaderBytes), "frame");
  if (r.U32() != kFrameMagic) {
    return Status::DataLoss("frame: bad magic");
  }
  const uint32_t raw_type = r.U32();
  if (!IsKnownFrameType(raw_type)) {
    return Status::DataLoss("frame: unknown type " + std::to_string(raw_type));
  }
  *length = r.U64();
  if (*length > max_payload_bytes) {
    return Status::DataLoss("frame: implausible payload length " +
                            std::to_string(*length));
  }
  *type = static_cast<FrameType>(raw_type);
  return Status::Ok();
}

// Checks the CRC32 trailer against header + payload; both readers share it.
Status CheckFrameChecksum(const char* header, std::string_view payload,
                          const char* trailer) {
  uint32_t crc = Crc32Update(0, header, kHeaderBytes);
  crc = Crc32Update(crc, payload.data(), payload.size());
  if (crc != LoadLE<4>(reinterpret_cast<const unsigned char*>(trailer))) {
    return Status::DataLoss("frame: checksum mismatch");
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeFrame(FrameType type, std::string_view payload) {
  return FlattenFrameParts(EncodeFrameParts(type, payload));
}

StatusOr<Frame> ReadFrame(Socket& socket, uint64_t max_payload_bytes) {
  char header[kHeaderBytes];
  DCP_RETURN_IF_ERROR(socket.RecvAll(header, sizeof(header)));
  Frame frame;
  uint64_t length = 0;
  DCP_RETURN_IF_ERROR(ParseFrameHeader(header, max_payload_bytes, &frame.type, &length));
  frame.payload.resize(static_cast<size_t>(length));
  if (length > 0) {
    Status read = socket.RecvAll(frame.payload.data(), frame.payload.size());
    if (!read.ok()) {
      // A close inside the payload is a torn frame regardless of RecvAll's code.
      return Status::DataLoss("frame: " + read.message());
    }
  }
  char trailer[4];
  Status read = socket.RecvAll(trailer, sizeof(trailer));
  if (!read.ok()) {
    return Status::DataLoss("frame: " + read.message());
  }
  DCP_RETURN_IF_ERROR(CheckFrameChecksum(header, frame.payload, trailer));
  return frame;
}

Status WriteFrame(Socket& socket, FrameType type, std::string_view payload) {
  FrameParts parts = EncodeFrameParts(type, payload);
  iovec iov[2] = {{parts.head.data(), parts.head.size()},
                  {parts.crc.data(), parts.crc.size()}};
  return socket.SendAll(iov, 2);
}

FrameParts EncodeFrameParts(FrameType type, std::string_view payload_head,
                            std::shared_ptr<const std::string> payload_body) {
  FrameParts parts;
  const size_t body_size = payload_body == nullptr ? 0 : payload_body->size();
  ByteWriter head;
  head.Reserve(kHeaderBytes + payload_head.size());
  head.U32(kFrameMagic);
  head.U32(static_cast<uint32_t>(type));
  head.U64(payload_head.size() + body_size);
  head.Bytes(payload_head);
  parts.head = head.Take();
  uint32_t crc = Crc32Update(0, parts.head.data(), parts.head.size());
  if (body_size > 0) {
    crc = Crc32Update(crc, payload_body->data(), body_size);
    parts.body = std::move(payload_body);
  }
  StoreLE<4>(reinterpret_cast<unsigned char*>(parts.crc.data()), crc);
  return parts;
}

std::string FlattenFrameParts(const FrameParts& parts) {
  std::string out;
  out.reserve(parts.TotalBytes());
  out.append(parts.head);
  if (parts.body != nullptr) {
    out.append(*parts.body);
  }
  out.append(parts.crc.data(), parts.crc.size());
  return out;
}

FrameAssembler::FrameAssembler(uint64_t max_payload_bytes)
    : max_payload_bytes_(max_payload_bytes) {}

void FrameAssembler::Append(const char* data, size_t n) {
  if (failed_ || n == 0) {
    return;  // A desynced stream buffers nothing further.
  }
  // Compact once the parsed prefix dominates, so the buffer stays proportional to the
  // unparsed remainder instead of growing with connection lifetime.
  if (consumed_ > 4096 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, n);
}

StatusOr<Frame> FrameAssembler::Next() {
  if (failed_) {
    return error_;
  }
  const size_t available = buffer_.size() - consumed_;
  if (available < kHeaderBytes) {
    return Status::NotFound("frame: need more bytes");
  }
  const char* header = buffer_.data() + consumed_;
  // Header validation runs as soon as 16 bytes exist: garbage is rejected without
  // waiting for (or allocating) a payload the claimed length implies.
  Frame frame;
  uint64_t length = 0;
  Status header_ok = ParseFrameHeader(header, max_payload_bytes_, &frame.type, &length);
  if (!header_ok.ok()) {
    failed_ = true;
    error_ = std::move(header_ok);
    return error_;
  }
  const size_t total = kHeaderBytes + static_cast<size_t>(length) + 4;
  if (available < total) {
    return Status::NotFound("frame: need more bytes");
  }
  const std::string_view payload(header + kHeaderBytes, static_cast<size_t>(length));
  Status checksum_ok = CheckFrameChecksum(header, payload, payload.data() + length);
  if (!checksum_ok.ok()) {
    failed_ = true;
    error_ = std::move(checksum_ok);
    return error_;
  }
  frame.payload.assign(payload);
  consumed_ += total;
  return frame;
}

}  // namespace dcp
