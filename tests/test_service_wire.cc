// Wire-level tests for the planning service: ServiceAddress parsing, the
// length-prefixed CRC32 framing over real sockets, and the request/response message
// codecs — round-trips, truncation at every prefix, and bit-flip robustness. The
// invariant under test is the same one the plan store enforces on disk: malformed
// bytes are a recoverable DATA_LOSS, never an abort and never a silently-wrong message.
#include <poll.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "service/fault_injection.h"
#include "service/frame.h"
#include "service/plan_server.h"
#include "service/transport.h"

namespace dcp {
namespace {

TEST(ServiceAddress, ParsesTcpAndUnix) {
  StatusOr<ServiceAddress> tcp = ServiceAddress::Parse("tcp:127.0.0.1:7070");
  ASSERT_TRUE(tcp.ok());
  EXPECT_EQ(tcp.value().kind, ServiceAddress::Kind::kTcp);
  EXPECT_EQ(tcp.value().host, "127.0.0.1");
  EXPECT_EQ(tcp.value().port, 7070);
  EXPECT_EQ(tcp.value().ToString(), "tcp:127.0.0.1:7070");

  StatusOr<ServiceAddress> unix_addr = ServiceAddress::Parse("unix:/tmp/dcp.sock");
  ASSERT_TRUE(unix_addr.ok());
  EXPECT_EQ(unix_addr.value().kind, ServiceAddress::Kind::kUnix);
  EXPECT_EQ(unix_addr.value().path, "/tmp/dcp.sock");
  EXPECT_EQ(unix_addr.value().ToString(), "unix:/tmp/dcp.sock");
}

TEST(ServiceAddress, RejectsMalformedSpecs) {
  for (const char* spec :
       {"", "tcp:", "tcp:127.0.0.1", "tcp:127.0.0.1:", "tcp::7070", "tcp:host:badport",
        "tcp:127.0.0.1:99999999", "unix:", "http://x", "127.0.0.1:7070"}) {
    EXPECT_FALSE(ServiceAddress::Parse(spec).ok()) << spec;
  }
}

PlanServiceRequest MakeRequest() {
  PlanServiceRequest request;
  request.tenant = "prod";
  request.seqlens = {64, 32, 17};
  request.mask_spec = MaskSpec::Lambda(4, 13);
  request.block_size = 16;
  return request;
}

void ExpectRequestDecodedAs(const PlanServiceRequest& a,
                            const PlanServiceRequestView& b) {
  EXPECT_EQ(a.tenant, b.tenant);
  EXPECT_EQ(a.seqlens, std::vector<int64_t>(b.seqlens.begin(), b.seqlens.end()));
  EXPECT_EQ(a.mask_spec.kind, b.mask_spec.kind);
  EXPECT_EQ(a.mask_spec.sink_tokens, b.mask_spec.sink_tokens);
  EXPECT_EQ(a.mask_spec.window_tokens, b.mask_spec.window_tokens);
  EXPECT_EQ(a.mask_spec.icl_block_tokens, b.mask_spec.icl_block_tokens);
  EXPECT_EQ(a.mask_spec.num_answers, b.mask_spec.num_answers);
  EXPECT_DOUBLE_EQ(a.mask_spec.answer_fraction, b.mask_spec.answer_fraction);
  EXPECT_EQ(a.block_size, b.block_size);
  EXPECT_EQ(a.deadline_ms, b.deadline_ms);
}

TEST(ServiceMessages, PlanRequestRoundTripsForEveryMaskKind) {
  for (MaskKind kind : AllMaskKinds()) {
    PlanServiceRequest request = MakeRequest();
    request.mask_spec = MaskSpec::ForKind(kind);
    const std::string bytes = SerializePlanServiceRequest(request);
    std::vector<int64_t> seqlens;
    StatusOr<PlanServiceRequestView> decoded =
        DeserializePlanServiceRequestView(bytes, &seqlens);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectRequestDecodedAs(request, decoded.value());
  }
}

TEST(ServiceMessages, PlanRequestTruncationAlwaysRejected) {
  const std::string bytes = SerializePlanServiceRequest(MakeRequest());
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<int64_t> seqlens;
    EXPECT_FALSE(DeserializePlanServiceRequestView(bytes.substr(0, len), &seqlens).ok())
        << "prefix of " << len << " bytes decoded";
  }
  // Trailing garbage is rejected too.
  std::vector<int64_t> seqlens;
  EXPECT_FALSE(DeserializePlanServiceRequestView(bytes + "x", &seqlens).ok());
}

TEST(ServiceMessages, PlanRequestBitFlipsNeverCrash) {
  const std::string bytes = SerializePlanServiceRequest(MakeRequest());
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      // Must return (ok or not), never abort; a flip that survives decoding must be a
      // flip that changed a value, not the structure.
      std::vector<int64_t> seqlens;
      (void)DeserializePlanServiceRequestView(corrupt, &seqlens);
    }
  }
}

TEST(ServiceMessages, PlanResponseRoundTripsAndValidates) {
  PlanServiceResponse response;
  response.code = StatusCode::kOk;
  response.source = PlanServeSource::kStoreCache;
  response.signature_lo = 0x1234567890abcdefULL;
  response.signature_hi = 0xfedcba0987654321ULL;
  response.record = std::string("record-bytes\x00\x7f\xff", 15);
  const std::string bytes = SerializePlanServiceResponse(response);
  StatusOr<PlanServiceResponseView> decoded = DeserializePlanServiceResponseView(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().code, response.code);
  EXPECT_EQ(decoded.value().source, response.source);
  EXPECT_EQ(decoded.value().signature_lo, response.signature_lo);
  EXPECT_EQ(decoded.value().signature_hi, response.signature_hi);
  EXPECT_EQ(decoded.value().record, response.record);
  // Zero-copy: the record aliases the payload instead of copying it.
  EXPECT_GE(decoded.value().record.data(), bytes.data());
  EXPECT_LE(decoded.value().record.data() + decoded.value().record.size(),
            bytes.data() + bytes.size());

  // The owning decode is the same decode, copied.
  StatusOr<PlanServiceResponse> owned = DeserializePlanServiceResponse(bytes);
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  EXPECT_EQ(owned.value().code, response.code);
  EXPECT_EQ(owned.value().source, response.source);
  EXPECT_EQ(owned.value().signature_lo, response.signature_lo);
  EXPECT_EQ(owned.value().signature_hi, response.signature_hi);
  EXPECT_EQ(owned.value().record, response.record);

  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DeserializePlanServiceResponseView(bytes.substr(0, len)).ok());
    EXPECT_FALSE(DeserializePlanServiceResponse(bytes.substr(0, len)).ok());
  }
  EXPECT_FALSE(DeserializePlanServiceResponseView(bytes + "y").ok());

  // Error responses carry the status code + message through the codec.
  PlanServiceResponse error;
  error.code = StatusCode::kUnavailable;
  error.message = "server overloaded";
  const std::string error_bytes = SerializePlanServiceResponse(error);
  StatusOr<PlanServiceResponseView> decoded_error =
      DeserializePlanServiceResponseView(error_bytes);
  ASSERT_TRUE(decoded_error.ok());
  EXPECT_EQ(decoded_error.value().code, StatusCode::kUnavailable);
  EXPECT_EQ(decoded_error.value().message, "server overloaded");
  EXPECT_TRUE(decoded_error.value().record.empty());
}

// A connected AF_UNIX socket pair wrapped in the transport's Socket class, for framing
// tests without a listener.
std::pair<Socket, Socket> MakeSocketPair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {Socket(fds[0]), Socket(fds[1])};
}

TEST(ServiceFrame, RoundTripsOverSocket) {
  auto [a, b] = MakeSocketPair();
  const std::string payload = "hello plan service \x01\x02\x00 frame";
  ASSERT_TRUE(WriteFrame(a, FrameType::kPlanRequest, payload).ok());
  StatusOr<Frame> frame = ReadFrame(b);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().type, FrameType::kPlanRequest);
  EXPECT_EQ(frame.value().payload, payload);

  // Empty payloads frame fine too.
  ASSERT_TRUE(WriteFrame(b, FrameType::kMetricsRequest, "").ok());
  StatusOr<Frame> empty = ReadFrame(a);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().payload, "");
}

TEST(ServiceFrame, CorruptFramesRejectedAsDataLoss) {
  const std::string encoded = EncodeFrame(FrameType::kPlanRequest, "payload-bytes");
  // Flip every bit of the frame: the reader must reject (header damage) or fail the
  // CRC (payload damage) — it must never return a frame with altered bytes.
  for (size_t byte = 0; byte < encoded.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = encoded;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      auto [a, b] = MakeSocketPair();
      ASSERT_TRUE(a.SendAll(corrupt).ok());
      a.Close();  // Flush + EOF so length-extending flips read as truncation.
      StatusOr<Frame> frame = ReadFrame(b);
      EXPECT_FALSE(frame.ok()) << "byte " << byte << " bit " << bit;
      EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
    }
  }
}

// Unassigned frame types fail the header check even when the frame is otherwise
// well-formed: 0, the retired stats pair (3, 4), and anything past the last type.
TEST(ServiceFrame, UnassignedFrameTypesRejectedAsDataLoss) {
  for (uint32_t type : {0u, 3u, 4u, 10u}) {
    const std::string encoded = EncodeFrame(static_cast<FrameType>(type), "");
    auto [a, b] = MakeSocketPair();
    ASSERT_TRUE(a.SendAll(encoded).ok());
    StatusOr<Frame> frame = ReadFrame(b);
    ASSERT_FALSE(frame.ok()) << "type " << type;
    EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss) << "type " << type;

    FrameAssembler assembler;
    assembler.Append(encoded.data(), encoded.size());
    StatusOr<Frame> assembled = assembler.Next();
    ASSERT_FALSE(assembled.ok()) << "type " << type;
    EXPECT_EQ(assembled.status().code(), StatusCode::kDataLoss) << "type " << type;
  }
}

TEST(ServiceFrame, TruncationAndCleanCloseDistinguished) {
  const std::string encoded = EncodeFrame(FrameType::kPlanRequest, "payload");
  // Close mid-frame at every prefix: DATA_LOSS (torn frame).
  for (size_t len = 1; len < encoded.size(); ++len) {
    auto [a, b] = MakeSocketPair();
    ASSERT_TRUE(a.SendAll(encoded.substr(0, len)).ok());
    a.Close();
    StatusOr<Frame> frame = ReadFrame(b);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss) << "prefix " << len;
  }
  // Clean close between frames: UNAVAILABLE (peer hung up, nothing torn).
  auto [a, b] = MakeSocketPair();
  a.Close();
  StatusOr<Frame> frame = ReadFrame(b);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

TEST(ServiceFrame, OversizedLengthRejectedBeforeAllocation) {
  // Hand-build a header claiming a 1 EiB payload; the reader must reject on the
  // length field without trying to read or allocate it.
  std::string header = EncodeFrame(FrameType::kPlanRequest, "");
  header.resize(16);  // Keep only the header (drop the CRC).
  for (int i = 0; i < 8; ++i) {
    header[8 + i] = static_cast<char>(0xff);
  }
  auto [a, b] = MakeSocketPair();
  ASSERT_TRUE(a.SendAll(header).ok());
  StatusOr<Frame> frame = ReadFrame(b);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
}

TEST(ServiceTransport, ListenerRoundTripAndEphemeralPort) {
  StatusOr<Listener> listener = Listener::Bind(ServiceAddress::Tcp("127.0.0.1", 0));
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  EXPECT_GT(listener.value().bound_address().port, 0);

  StatusOr<Socket> client = ConnectSocket(listener.value().bound_address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  pollfd pfd = {listener.value().fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, /*timeout=*/2000), 1);
  Socket served(::accept(listener.value().fd(), nullptr, nullptr));
  ASSERT_TRUE(served.valid());

  ASSERT_TRUE(WriteFrame(client.value(), FrameType::kMetricsRequest, "ping").ok());
  StatusOr<Frame> frame = ReadFrame(served);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame.value().payload, "ping");
}

TEST(ServiceAddress, PortZeroRejectedAtParseWithActionableMessage) {
  // tcp:host:0 used to parse fine and then bind an ephemeral port the operator never
  // learns (or dial port 0 and fail deep in connect); it must die at parse instead.
  const StatusOr<ServiceAddress> port0 = ServiceAddress::Parse("tcp:127.0.0.1:0");
  ASSERT_FALSE(port0.ok());
  EXPECT_EQ(port0.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(port0.status().message().find("1..65535"), std::string::npos)
      << port0.status().message();
}

TEST(ServiceAddress, PortRangeBoundaries) {
  StatusOr<ServiceAddress> top = ServiceAddress::Parse("tcp:127.0.0.1:65535");
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top.value().port, 65535);
  EXPECT_FALSE(ServiceAddress::Parse("tcp:127.0.0.1:65536").ok());
  EXPECT_FALSE(ServiceAddress::Parse("tcp:127.0.0.1:-1").ok());
}

TEST(ServiceFrame, FramePartsMatchContiguousEncodingWithoutCopyingTheBody) {
  const std::string head_payload = "response-head";
  auto body = std::make_shared<const std::string>("shared record bytes \x00\x7f", 22);
  FrameParts parts = EncodeFrameParts(FrameType::kPlanResponse, head_payload, body);
  // The body rides by reference: same string object, not a copy.
  EXPECT_EQ(parts.body.get(), body.get());
  // head ++ *body ++ crc is bit-identical to the contiguous encoder on the
  // concatenated payload, so readers cannot tell the two writers apart.
  EXPECT_EQ(FlattenFrameParts(parts),
            EncodeFrame(FrameType::kPlanResponse, head_payload + *body));
  // Body-less parts (error responses) flatten correctly too.
  FrameParts head_only = EncodeFrameParts(FrameType::kErrorResponse, head_payload);
  EXPECT_EQ(FlattenFrameParts(head_only),
            EncodeFrame(FrameType::kErrorResponse, head_payload));
}

TEST(ServiceMessages, ResponseHeadPlusRecordMatchesFullSerialization) {
  PlanServiceResponse full;
  full.code = StatusCode::kOk;
  full.source = PlanServeSource::kMemoryCache;
  full.signature_lo = 0x1122334455667788ULL;
  full.signature_hi = 0x99aabbccddeeff00ULL;
  full.record = std::string("record\x00\xff payload", 16);

  PlanServiceResponse head_response = full;
  head_response.record.clear();
  const std::string head =
      SerializePlanServiceResponseHead(head_response, full.record.size());
  EXPECT_EQ(head + full.record, SerializePlanServiceResponse(full));
}

TEST(ServiceMessages, RequestViewDecodesIdenticallyIntoOneExactArray) {
  PlanServiceRequest request = MakeRequest();
  request.seqlens = {4096, 1, 777, 65536, 3};
  request.deadline_ms = 250;
  const std::string bytes = SerializePlanServiceRequest(request);

  std::vector<int64_t> seqlens;
  StatusOr<PlanServiceRequestView> view =
      DeserializePlanServiceRequestView(bytes, &seqlens);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view.value().tenant, request.tenant);
  EXPECT_EQ(std::vector<int64_t>(view.value().seqlens.begin(),
                                 view.value().seqlens.end()),
            request.seqlens);
  EXPECT_EQ(view.value().mask_spec.kind, request.mask_spec.kind);
  EXPECT_EQ(view.value().block_size, request.block_size);
  EXPECT_EQ(view.value().deadline_ms, request.deadline_ms);
  // Zero-copy decode: the tenant aliases the wire bytes and the seqlens are one
  // exactly sized array in the caller's vector — no per-field heap allocations.
  EXPECT_GE(view.value().tenant.data(), bytes.data());
  EXPECT_LT(view.value().tenant.data(), bytes.data() + bytes.size());
  EXPECT_EQ(seqlens.capacity(), seqlens.size());
  EXPECT_EQ(view.value().seqlens.data(), seqlens.data());
  EXPECT_EQ(view.value().seqlens.size(), seqlens.size());
}

TEST(ServiceFrame, AssemblerReassemblesFramesFedByteByByte) {
  const std::string first = EncodeFrame(FrameType::kPlanRequest, "alpha");
  const std::string second = EncodeFrame(FrameType::kMetricsRequest, "");
  const std::string third =
      EncodeFrame(FrameType::kPlanResponse, std::string(1000, 'r'));
  const std::string stream = first + second + third;

  FrameAssembler assembler;
  std::vector<Frame> frames;
  for (size_t i = 0; i < stream.size(); ++i) {
    assembler.Append(stream.data() + i, 1);
    while (true) {
      StatusOr<Frame> frame = assembler.Next();
      if (!frame.ok()) {
        EXPECT_EQ(frame.status().code(), StatusCode::kNotFound);
        break;
      }
      frames.push_back(std::move(frame).value());
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kPlanRequest);
  EXPECT_EQ(frames[0].payload, "alpha");
  EXPECT_EQ(frames[1].type, FrameType::kMetricsRequest);
  EXPECT_EQ(frames[1].payload, "");
  EXPECT_EQ(frames[2].payload, std::string(1000, 'r'));
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
  EXPECT_FALSE(assembler.failed());
}

TEST(ServiceFrame, AssemblerFailureIsSticky) {
  std::string corrupt = EncodeFrame(FrameType::kPlanRequest, "payload");
  corrupt[corrupt.size() - 1] ^= 0x01;  // Break the CRC.
  FrameAssembler assembler;
  assembler.Append(corrupt.data(), corrupt.size());
  StatusOr<Frame> frame = assembler.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(assembler.failed());
  // A desynced stream stays failed: even appending a pristine frame cannot recover.
  const std::string good = EncodeFrame(FrameType::kPlanRequest, "good");
  assembler.Append(good.data(), good.size());
  StatusOr<Frame> after = assembler.Next();
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kDataLoss);
}

TEST(ServiceFrame, AssemblerRejectsBadHeaderBeforePayloadArrives) {
  // 16 header bytes claiming an oversized payload must fail immediately — the
  // assembler must not wait for (or buffer toward) a petabyte that never comes.
  std::string header = EncodeFrame(FrameType::kPlanRequest, "");
  header.resize(16);
  for (int i = 0; i < 8; ++i) {
    header[8 + i] = static_cast<char>(0xff);
  }
  FrameAssembler assembler(/*max_payload_bytes=*/1 << 20);
  assembler.Append(header.data(), header.size());
  StatusOr<Frame> frame = assembler.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
}

TEST(ServiceMessages, PlanRequestTraceIdRoundTripsAndV2StillParses) {
  PlanServiceRequest request = MakeRequest();
  request.trace_id = 0xabcdef0123456789ULL;
  const std::string bytes = SerializePlanServiceRequest(request);
  std::vector<int64_t> seqlens;
  StatusOr<PlanServiceRequestView> decoded =
      DeserializePlanServiceRequestView(bytes, &seqlens);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().trace_id, request.trace_id);

  // A v2 peer's encoding is exactly the v3 body minus the trailing trace id,
  // with the leading version word patched down. It must still parse, with
  // trace_id defaulting to 0 (= "untraced").
  ASSERT_GT(bytes.size(), 12u);
  std::string v2 = bytes.substr(0, bytes.size() - 8);
  v2[0] = 2;
  v2[1] = v2[2] = v2[3] = 0;
  StatusOr<PlanServiceRequestView> old = DeserializePlanServiceRequestView(v2, &seqlens);
  ASSERT_TRUE(old.ok()) << old.status().ToString();
  ExpectRequestDecodedAs(request, old.value());
  EXPECT_EQ(old.value().trace_id, 0u);

  // A message claiming v2 but carrying the v3 trailer has trailing garbage.
  std::string v2_with_trailer = bytes;
  v2_with_trailer[0] = 2;
  EXPECT_FALSE(DeserializePlanServiceRequestView(v2_with_trailer, &seqlens).ok());

  // Versions outside [min, current] are rejected in both directions.
  std::string v1 = v2;
  v1[0] = 1;
  EXPECT_FALSE(DeserializePlanServiceRequestView(v1, &seqlens).ok());
  std::string v4 = bytes;
  v4[0] = 4;
  EXPECT_FALSE(DeserializePlanServiceRequestView(v4, &seqlens).ok());
}

TEST(ServiceMessages, MetricsMessagesRoundTripAndRejectTruncation) {
  PlanServiceMetricsRequest request;
  request.name_prefix = "dcp_server_";
  const std::string request_bytes = SerializePlanServiceMetricsRequest(request);
  StatusOr<PlanServiceMetricsRequest> decoded_request =
      DeserializePlanServiceMetricsRequest(request_bytes);
  ASSERT_TRUE(decoded_request.ok()) << decoded_request.status().ToString();
  EXPECT_EQ(decoded_request.value().name_prefix, request.name_prefix);
  for (size_t len = 0; len < request_bytes.size(); ++len) {
    EXPECT_FALSE(
        DeserializePlanServiceMetricsRequest(request_bytes.substr(0, len)).ok());
  }
  EXPECT_FALSE(DeserializePlanServiceMetricsRequest(request_bytes + "x").ok());
  // The prefix is a metric name, not a document: oversized prefixes rejected.
  PlanServiceMetricsRequest oversized;
  oversized.name_prefix.assign(10000, 'a');
  EXPECT_FALSE(DeserializePlanServiceMetricsRequest(
                   SerializePlanServiceMetricsRequest(oversized))
                   .ok());

  PlanServiceMetricsResponse response;
  response.code = StatusCode::kOk;
  response.text = "# HELP dcp_x_total x\n# TYPE dcp_x_total counter\ndcp_x_total 7\n";
  const std::string response_bytes = SerializePlanServiceMetricsResponse(response);
  StatusOr<PlanServiceMetricsResponse> decoded_response =
      DeserializePlanServiceMetricsResponse(response_bytes);
  ASSERT_TRUE(decoded_response.ok()) << decoded_response.status().ToString();
  EXPECT_EQ(decoded_response.value().code, StatusCode::kOk);
  EXPECT_EQ(decoded_response.value().text, response.text);
  for (size_t len = 0; len < response_bytes.size(); ++len) {
    EXPECT_FALSE(
        DeserializePlanServiceMetricsResponse(response_bytes.substr(0, len)).ok());
  }
  EXPECT_FALSE(DeserializePlanServiceMetricsResponse(response_bytes + "y").ok());

  // Error shape: a non-OK code with a message and no text.
  PlanServiceMetricsResponse error;
  error.code = StatusCode::kFailedPrecondition;
  error.message = "metrics disabled";
  StatusOr<PlanServiceMetricsResponse> decoded_error =
      DeserializePlanServiceMetricsResponse(
          SerializePlanServiceMetricsResponse(error));
  ASSERT_TRUE(decoded_error.ok());
  EXPECT_EQ(decoded_error.value().code, StatusCode::kFailedPrecondition);
  EXPECT_EQ(decoded_error.value().message, "metrics disabled");
  EXPECT_TRUE(decoded_error.value().text.empty());
}

TEST(ServiceTransport, ConnectToDeadEndpointIsUnavailable) {
  // Bind (grabbing a port) and immediately close, then connect to the dead port.
  StatusOr<Listener> listener = Listener::Bind(ServiceAddress::Tcp("127.0.0.1", 0));
  ASSERT_TRUE(listener.ok());
  const ServiceAddress address = listener.value().bound_address();
  listener.value().Close();
  StatusOr<Socket> client = ConnectSocket(address);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable);
}

// --- The blocking calls' contract: a budget per call, one fault decision per call ----

int64_t ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

TEST(ServiceTransport, RecvAllOnASilentPeerTimesOut) {
  auto [a, b] = MakeSocketPair();
  b.set_io_timeout_ms(50);
  char buf[16];
  const auto started = std::chrono::steady_clock::now();
  const Status status = b.RecvAll(buf, sizeof(buf));
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status.ToString();
  EXPECT_GE(ElapsedMs(started), 45);
}

TEST(ServiceTransport, SendAllToAPeerThatStopsDrainingTimesOut) {
  auto [a, b] = MakeSocketPair();
  a.set_io_timeout_ms(100);
  // Far more than the socket pair buffers; `b` never reads.
  const std::string bytes(16 << 20, 'x');
  const Status status = a.SendAll(bytes);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status.ToString();
}

TEST(ServiceTransport, IoBudgetCoversTheWholeCallNotEachSyscall) {
  auto [a, b] = MakeSocketPair();
  std::atomic<bool> stop{false};
  // One byte every 20 ms: each recv makes progress, but 100 bytes take 2 s.
  std::thread trickle([&a = a, &stop] {
    for (int i = 0; i < 100 && !stop.load(); ++i) {
      if (!a.SendAll("x").ok()) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  b.set_io_timeout_ms(100);
  char buf[100];
  const auto started = std::chrono::steady_clock::now();
  const Status status = b.RecvAll(buf, sizeof(buf));
  const int64_t elapsed_ms = ElapsedMs(started);
  stop.store(true);
  trickle.join();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status.ToString();
  EXPECT_LT(elapsed_ms, 1000);
}

TEST(ServiceTransport, OneFaultDecisionPerSendAllAndRecvAll) {
  auto [a, b] = MakeSocketPair();
  auto send_faults = std::make_shared<FaultInjector>(1);
  auto recv_faults = std::make_shared<FaultInjector>(2);
  a.set_fault_injector(send_faults);
  b.set_fault_injector(recv_faults);
  // 4 MiB is many sendmsg and recv calls through a socket pair's buffer.
  const std::string bytes(4 << 20, 'y');
  std::string received(bytes.size(), '\0');
  Status recv_status = Status::Ok();
  std::thread reader([&b = b, &received, &recv_status] {
    recv_status = b.RecvAll(received.data(), received.size());
  });
  const Status send_status = a.SendAll(bytes);
  reader.join();
  ASSERT_TRUE(send_status.ok()) << send_status.ToString();
  ASSERT_TRUE(recv_status.ok()) << recv_status.ToString();
  EXPECT_EQ(received, bytes);
  EXPECT_EQ(send_faults->decisions(), 1);
  EXPECT_EQ(recv_faults->decisions(), 1);
}

TEST(ServiceTransport, InjectedTearDeliversExactlyTearBytes) {
  FaultRates tear;
  tear.every_n = 1;
  tear.periodic_action = FaultAction::kTear;
  tear.tear_bytes = 10;
  const std::string payload(100, 'p');
  {
    auto [a, b] = MakeSocketPair();
    auto faults = std::make_shared<FaultInjector>(3);
    faults->SetRates(FaultPoint::kSend, tear);
    a.set_fault_injector(faults);
    EXPECT_EQ(WriteFrame(a, FrameType::kPlanRequest, payload).code(),
              StatusCode::kUnavailable);
    char buf[256];
    size_t total = 0;
    for (ssize_t n; (n = ::recv(b.fd(), buf, sizeof(buf), 0)) > 0;) {
      total += static_cast<size_t>(n);
    }
    EXPECT_EQ(total, tear.tear_bytes);
  }
  {
    auto [a, b] = MakeSocketPair();
    auto faults = std::make_shared<FaultInjector>(3);
    faults->SetRates(FaultPoint::kSend, tear);
    a.set_fault_injector(faults);
    EXPECT_FALSE(WriteFrame(a, FrameType::kPlanRequest, payload).ok());
    StatusOr<Frame> frame = ReadFrame(b);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss) << frame.status().ToString();
  }
}

// No IO call closes the fd, on a fault either: the owner does, as the event loop must.
TEST(ServiceTransport, InjectedFaultsLeaveTheFdToItsOwner) {
  for (FaultAction action : {FaultAction::kFail, FaultAction::kTear}) {
    FaultRates rates;
    rates.every_n = 1;
    rates.periodic_action = action;
    auto faults = std::make_shared<FaultInjector>(4);
    faults->SetRates(FaultPoint::kSend, rates);
    faults->SetRates(FaultPoint::kRecv, rates);
    auto [a, b] = MakeSocketPair();
    a.set_fault_injector(faults);
    b.set_fault_injector(faults);
    EXPECT_FALSE(a.SendAll("bytes").ok());
    char buf[4];
    EXPECT_FALSE(b.RecvAll(buf, sizeof(buf)).ok());
    EXPECT_TRUE(a.valid());
    EXPECT_TRUE(b.valid());
  }
}

// Writes `bytes` to one end of a socket pair, shuts it down, and reads one frame from
// the other: a short frame surfaces as DATA_LOSS at EOF instead of hanging.
StatusOr<Frame> ReadFrameFromBytes(const std::string& bytes, uint64_t max_payload_bytes) {
  auto [a, b] = MakeSocketPair();
  EXPECT_TRUE(a.SendAll(bytes).ok());
  a.Shutdown();
  return ReadFrame(b, max_payload_bytes);
}

// The assembler's verdict on all of `bytes`. NOT_FOUND means it needs more bytes;
// `buffered` then says how many it holds.
StatusOr<Frame> AssembleFromBytes(const std::string& bytes, uint64_t max_payload_bytes,
                                  size_t* buffered) {
  FrameAssembler assembler(max_payload_bytes);
  assembler.Append(bytes.data(), bytes.size());
  StatusOr<Frame> frame = assembler.Next();
  *buffered = assembler.buffered_bytes();
  return frame;
}

// The two frame readers must agree over seeded bit flips, truncations, length-field
// edits and splices of round-trip frames: both accept with equal type and payload, or
// both reject for the same reason. Where the assembler still waits for bytes, ReadFrame
// must have run into the close: a short frame is DATA_LOSS (UNAVAILABLE when nothing
// was sent), and a header the assembler accepted was not rejected by ReadFrame, which
// would mean the two bound the payload length differently. The small payload cap
// checks that no length edit gets either reader to allocate past it.
TEST(ServiceFrame, SeededMutationsReadIdenticallyByBothReaders) {
  constexpr uint64_t kMaxPayload = 2048;
  const uint64_t seed = 0xF7A3E5;
  std::printf("frame fuzz seed 0x%llx\n", static_cast<unsigned long long>(seed));
  RecordProperty("fuzz_seed", std::to_string(seed));
  Rng corpus_rng(31);
  std::vector<std::string> corpus;
  for (FrameType type : {FrameType::kPlanRequest, FrameType::kPlanResponse,
                         FrameType::kErrorResponse, FrameType::kSyncRequest,
                         FrameType::kMetricsResponse}) {
    std::string payload(corpus_rng.NextBounded(kMaxPayload), '\0');
    for (char& c : payload) {
      c = static_cast<char>(corpus_rng.NextBounded(256));
    }
    corpus.push_back(EncodeFrame(type, payload));
  }
  corpus.push_back(EncodeFrame(FrameType::kMetricsRequest, ""));
  size_t buffered = 0;
  for (const std::string& frame : corpus) {
    ASSERT_TRUE(ReadFrameFromBytes(frame, kMaxPayload).ok());
    ASSERT_TRUE(AssembleFromBytes(frame, kMaxPayload, &buffered).ok());
  }
  Rng rng(seed);
  int accepted = 0;
  constexpr int kMutations = 3000;
  for (int i = 0; i < kMutations; ++i) {
    const std::string& a = corpus[rng.NextBounded(corpus.size())];
    std::string input = a;
    switch (rng.NextBounded(4)) {
      case 0: {  // One to three bit flips.
        const uint64_t flips = 1 + rng.NextBounded(3);
        for (uint64_t f = 0; f < flips; ++f) {
          const size_t at = rng.NextBounded(input.size());
          input[at] = static_cast<char>(input[at] ^ (1 << rng.NextBounded(8)));
        }
        break;
      }
      case 1:  // Truncation.
        input.resize(rng.NextBounded(input.size()));
        break;
      case 2: {  // Length field: near the true length, near the cap, or anything.
        const uint64_t length = a.size() - 20;
        uint64_t edited = rng.NextU64();
        switch (rng.NextBounded(3)) {
          case 0:
            edited = length + rng.NextBounded(9) - 4;
            break;
          case 1:
            edited = kMaxPayload + rng.NextBounded(5) - 2;
            break;
          default:
            break;
        }
        for (int b = 0; b < 8; ++b) {
          input[8 + b] = static_cast<char>(static_cast<uint8_t>(edited >> (8 * b)));
        }
        break;
      }
      default: {  // Splice: a prefix of one frame, a suffix of another.
        const std::string& b = corpus[rng.NextBounded(corpus.size())];
        input = a.substr(0, rng.NextBounded(a.size())) +
                b.substr(rng.NextBounded(b.size()));
        break;
      }
    }
    StatusOr<Frame> read = ReadFrameFromBytes(input, kMaxPayload);
    StatusOr<Frame> assembled = AssembleFromBytes(input, kMaxPayload, &buffered);
    const std::string verdicts = "mutation " + std::to_string(i) + ": ReadFrame " +
                                 read.status().ToString() + ", FrameAssembler " +
                                 assembled.status().ToString();
    ASSERT_EQ(read.ok(), assembled.ok()) << verdicts;
    if (read.ok()) {
      ++accepted;
      ASSERT_EQ(read.value().type, assembled.value().type) << verdicts;
      ASSERT_EQ(read.value().payload, assembled.value().payload) << verdicts;
      ASSERT_LE(read.value().payload.size(), kMaxPayload) << verdicts;
    } else if (assembled.status().code() == StatusCode::kNotFound) {
      ASSERT_EQ(read.status().code(),
                buffered > 0 ? StatusCode::kDataLoss : StatusCode::kUnavailable)
          << verdicts;
      ASSERT_NE(read.status().message().find("connection closed"), std::string::npos)
          << verdicts;
    } else {
      ASSERT_EQ(read.status().ToString(), assembled.status().ToString()) << verdicts;
    }
  }
  std::printf("frame fuzz: %d of %d mutations accepted by both readers\n", accepted,
              kMutations);
}

}  // namespace
}  // namespace dcp
