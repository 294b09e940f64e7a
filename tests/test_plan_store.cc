// The persistent plan store and the hardened (de)serialization under it: randomized
// binary round-trips, corruption injection (bit flips, truncation at every boundary —
// error Status, never a crash, never a silently corrupt plan), cross-process warm start
// (a second Engine on the same path serves store hits bit-identical to fresh PlanBatch),
// the dcpctl bundle export/import path, and seeded mutation loops over plan payloads,
// records and bundles.
#include "core/plan_store.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/planner.h"
#include "tests/plan_test_util.h"

namespace fs = std::filesystem;

namespace dcp {
namespace {

using plan_test::GeneratedCase;
using plan_test::GenerateCase;
using plan_test::MakeOptions;
using plan_test::SerializeTimeless;
using plan_test::SmallMaskSpec;

class PlanStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("dcp_plan_store_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string StorePath(const char* sub = "store") const {
    return (dir_ / sub).string();
  }

  fs::path dir_;
};

struct PlannedCase {
  GeneratedCase c;
  ClusterSpec cluster;
  MaskSpec spec;
  PlannerOptions options;
  BatchPlan plan;
};

PlannedCase PlanRandomCase(Rng& rng) {
  PlannedCase p;
  p.c = GenerateCase(rng);
  p.cluster.num_nodes = p.c.num_nodes;
  p.cluster.devices_per_node = p.c.devices_per_node;
  p.spec = SmallMaskSpec(p.c.mask_kind);
  p.options = MakeOptions(p.c);
  std::vector<SequenceMask> masks = BuildBatchMasks(p.spec, p.c.seqlens);
  p.plan = PlanBatch(p.c.seqlens, masks, p.cluster, p.options);
  return p;
}

// CRC-32 straight from its definition, one bit at a time: the reference both kernels
// are held to. Extends `crc` (a finished checksum, 0 to start) like Crc32Update.
uint32_t BitwiseCrc32Update(uint32_t crc, const unsigned char* bytes, size_t size) {
  crc = ~crc;
  for (size_t i = 0; i < size; ++i) {
    crc ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return ~crc;
}

TEST(Crc32, MatchesTheIeeeCheckValueAtEveryLengthSplit) {
  // The standard CRC-32 check value pins the polynomial, reflection, and the final
  // inversion — any drift from the definition would silently invalidate every
  // existing plan record and frame.
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check), 0xCBF43926u);
  EXPECT_EQ(internal::PortableCrc32Update(0, check.data(), check.size()), 0xCBF43926u);

  // Both kernels (Crc32Update takes the carry-less-multiply path from 64 bytes on
  // PCLMUL hosts; the portable kernel is called directly so it is checked there too)
  // against the bitwise reference, at every length 0-1100 — across the 64-byte
  // minimum and every 0-15-byte tail — from every start offset 0-15, one-shot and in
  // random two- and three-way incremental splits.
  constexpr size_t kMaxLen = 1100;
  constexpr size_t kOffsets = 16;
  Rng rng(0xC3C32);
  std::vector<unsigned char> buf(kMaxLen + kOffsets);
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(rng.NextU64());
  }
  using Kernel = uint32_t (*)(uint32_t, const void*, size_t);
  const Kernel kernels[] = {&Crc32Update, &internal::PortableCrc32Update};
  for (size_t offset = 0; offset < kOffsets; ++offset) {
    const unsigned char* data = buf.data() + offset;
    uint32_t expected = 0;  // Reference CRC of data[0, len), extended per length.
    for (size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) {
        expected = BitwiseCrc32Update(expected, data + len - 1, 1);
      }
      const size_t a = static_cast<size_t>(rng.NextBounded(len + 1));
      const size_t b = a + static_cast<size_t>(rng.NextBounded(len - a + 1));
      for (int k = 0; k < 2; ++k) {
        const Kernel crc32 = kernels[k];
        ASSERT_EQ(crc32(0, data, len), expected)
            << "kernel " << k << " offset " << offset << " len " << len;
        ASSERT_EQ(crc32(crc32(0, data, a), data + a, len - a), expected)
            << "kernel " << k << " offset " << offset << " len " << len << " split "
            << a;
        ASSERT_EQ(crc32(crc32(crc32(0, data, a), data + a, b - a), data + b, len - b),
                  expected)
            << "kernel " << k << " offset " << offset << " len " << len << " splits "
            << a << "," << b;
      }
    }
  }

  // One plan-record-sized buffer (~128 KB), unaligned, whole and split.
  std::vector<unsigned char> big(128 * 1024 + 13);
  for (unsigned char& b : big) {
    b = static_cast<unsigned char>(rng.NextU64());
  }
  const unsigned char* data = big.data() + 3;
  const size_t len = big.size() - 3;
  const uint32_t expected = BitwiseCrc32Update(0, data, len);
  const size_t split = static_cast<size_t>(rng.NextBounded(len + 1));
  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(kernels[k](0, data, len), expected) << "kernel " << k;
    EXPECT_EQ(kernels[k](kernels[k](0, data, split), data + split, len - split),
              expected)
        << "kernel " << k << " split " << split;
  }
}

TEST(PlanBinaryCodec, RandomizedPlansRoundTripBitIdentical) {
  Rng rng(20260728);
  for (int iteration = 0; iteration < 6; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    const PlannedCase p = PlanRandomCase(rng);
    const std::string bytes = SerializePlanBinary(p.plan);
    StatusOr<BatchPlan> restored = DeserializePlanBinary(bytes);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    // Field-for-field equal to the original (a field either direction of the codec
    // drops fails here), and the binary form re-serializes byte-identically.
    EXPECT_TRUE(restored.value() == p.plan);
    EXPECT_EQ(SerializePlanBinary(restored.value()), bytes);
  }
}

// Columns whose values span the whole field range take width 8 with a negative base
// (negative doubles' bit patterns are negative integers); they must round-trip exactly.
TEST(PlanBinaryCodec, FullRangeColumnsRoundTrip) {
  Rng rng(24);
  BatchPlan plan = PlanRandomCase(rng).plan;
  DevicePlan& dev = plan.devices.at(0);
  ASSERT_GE(dev.instructions.size(), 2u);
  dev.instructions[0].flops = -0.0;
  dev.instructions[1].flops = 1e300;
  dev.instructions[0].comm_bytes = INT64_MIN;
  dev.instructions[1].comm_bytes = INT64_MAX;
  dev.instructions[0].host_overhead = -1.5;
  dev.instructions[0].transfer_id = INT32_MIN;
  dev.instructions[1].transfer_id = INT32_MAX;
  const std::string bytes = SerializePlanBinary(plan);
  StatusOr<BatchPlan> restored = DeserializePlanBinary(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored.value() == plan);
  EXPECT_EQ(SerializePlanBinary(restored.value()), bytes);
}

TEST(PlanBinaryCodec, EveryTruncationFailsCleanly) {
  Rng rng(7);
  const PlannedCase p = PlanRandomCase(rng);
  const std::string bytes = SerializePlanBinary(p.plan);
  ASSERT_GT(bytes.size(), 64u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    StatusOr<BatchPlan> truncated = DeserializePlanBinary(
        std::string_view(bytes).substr(0, len));
    ASSERT_FALSE(truncated.ok()) << "prefix of " << len << " bytes was accepted";
    ASSERT_EQ(truncated.status().code(), StatusCode::kDataLoss);
  }
  // Trailing garbage is rejected too.
  EXPECT_FALSE(DeserializePlanBinary(bytes + "x").ok());
}

TEST(PlanBinaryCodec, CorruptCountsAndEnumsAreRejectedWithoutAllocating) {
  Rng rng(8);
  const PlannedCase p = PlanRandomCase(rng);
  std::string bytes = SerializePlanBinary(p.plan);
  // Bad magic.
  {
    std::string bad = bytes;
    bad[0] = 'X';
    EXPECT_FALSE(DeserializePlanBinary(bad).ok());
  }
  // Bad version.
  {
    std::string bad = bytes;
    bad[4] = 0x7F;
    EXPECT_FALSE(DeserializePlanBinary(bad).ok());
  }
  // A hand-crafted stream whose sequence count claims 2^32 - 1 entries: must be
  // rejected by the count-vs-remaining-payload bound, not by an OOM.
  {
    std::string bad("DCPB", 4);
    bad += std::string("\x03\x00\x00\x00", 4);  // Version 3.
    auto zig = [&bad](int64_t v) {
      uint64_t u = (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
      while (u >= 0x80) {
        bad.push_back(static_cast<char>(0x80 | (u & 0x7F)));
        u >>= 7;
      }
      bad.push_back(static_cast<char>(u));
    };
    zig(16);  // block_size
    zig(2);   // num_groups
    zig(2);   // heads_per_group
    zig(8);   // head_dim
    zig(2);   // bytes_per_element
    bad += std::string("\xFF\xFF\xFF\xFF\x0F", 5);  // Varint 0xFFFFFFFF sequence count.
    StatusOr<BatchPlan> parsed = DeserializePlanBinary(bad);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
  }
  // A varint whose 10th byte carries payload bits past bit 63 is an encoding error,
  // not a silent truncation: craft one as the first field (block_size).
  {
    std::string bad("DCPB", 4);
    bad += std::string("\x03\x00\x00\x00", 4);  // Version 3.
    bad += std::string(9, '\x80');
    bad += '\x7E';  // 10th byte with overflowing payload bits.
    StatusOr<BatchPlan> parsed = DeserializePlanBinary(bad);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
  }
}

// Hand-assembles plan binary streams (format version 3) for the column codec's
// hostile-input tests: a one-sequence layout, one chunk home and zero stats, then the
// devices the test writes.
class StreamBuilder {
 public:
  explicit StreamBuilder(uint64_t num_devices) {
    bytes_ = "DCPB";
    bytes_ += std::string("\x03\x00\x00\x00", 4);
    for (int64_t v : {16, 1, 1, 8, 2}) {  // block_size, groups, heads, dim, bytes.
      Zig(v);
    }
    Var(1);  // One sequence,
    Zig(16);
    Var(1);  // one chunk,
    Zig(0);
    for (int field = 0; field < 9; ++field) {  // zero stats (3 varints, 2 doubles, ...).
      if (field == 3 || field == 4 || field == 7 || field == 8) {
        bytes_ += std::string(8, '\0');
      } else {
        Zig(0);
      }
    }
    Var(num_devices);
  }

  // A device header: zero slot counts, then the six pool counts.
  void Device(uint64_t local, uint64_t fw, uint64_t bw, uint64_t tiles, uint64_t reduce,
              uint64_t blocks) {
    for (int k = 0; k < kNumBufKinds; ++k) {
      Zig(0);
    }
    for (uint64_t count : {local, fw, bw, tiles, reduce, blocks}) {
      Var(count);
    }
  }
  // One column: its header, then each delta in `width` little-endian bytes.
  void Column(int64_t base, uint8_t width, std::initializer_list<uint64_t> deltas = {}) {
    Zig(base);
    bytes_.push_back(static_cast<char>(width));
    for (uint64_t d : deltas) {
      for (int i = 0; i < width; ++i) {
        bytes_.push_back(static_cast<char>(d >> (8 * i)));
      }
    }
  }
  void Empty(int columns) {
    for (int i = 0; i < columns; ++i) {
      Column(0, 0);
    }
  }
  void Var(uint64_t v) {
    while (v >= 0x80) {
      bytes_.push_back(static_cast<char>(0x80 | (v & 0x7F)));
      v >>= 7;
    }
    bytes_.push_back(static_cast<char>(v));
  }
  void Zig(int64_t v) {
    Var((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
  }

  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

// Knobs of the one-device stream below; each test breaks one thing.
struct OneTileDevice {
  uint8_t kind_width = 1;
  uint64_t kind = 0;
  uint8_t flags_width = 0;
  uint64_t tile_count = 1;  // The instruction's tile count column value.
  int64_t tile_seq_base = 0;
  uint64_t tile_seq = 0;
};

// One device with one forward attention instruction over one tile.
std::string OneTileStream(const OneTileDevice& d = {}) {
  StreamBuilder b(1);
  b.Device(/*local=*/0, /*fw=*/1, /*bw=*/0, /*tiles=*/1, /*reduce=*/0, /*blocks=*/0);
  b.Column(0, d.kind_width, {d.kind});      // kind (anchor)
  b.Column(0, d.flags_width, {0});          // flags
  b.Empty(4);                               // flops, comm, mem, host overhead
  b.Column(-1, 0);                          // transfer_id
  b.Column(-1, 0);                          // peer
  b.Column(static_cast<int64_t>(d.tile_count), 0);  // tile count
  b.Empty(2);                               // reduce and block counts
  b.Empty(5);                               // local chunks
  b.Column(d.tile_seq_base, 1, {d.tile_seq});  // tile seq (anchor)
  b.Empty(6);                               // the other tile columns
  b.Empty(8 + 4);                           // reduce items, blocks
  return b.bytes();
}

// Expects `bytes` to be rejected as DATA_LOSS, for the reason `error` names.
void ExpectDataLoss(std::string_view bytes, const char* error) {
  StatusOr<BatchPlan> parsed = DeserializePlanBinary(bytes);
  ASSERT_FALSE(parsed.ok()) << error;
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss) << error;
  EXPECT_NE(parsed.status().message().find(error), std::string::npos)
      << "expected \"" << error << "\", got " << parsed.status().ToString();
}

TEST(PlanBinaryCodec, HandBuiltColumnStreamDecodesAndReencodes) {
  const std::string bytes = OneTileStream();
  StatusOr<BatchPlan> parsed = DeserializePlanBinary(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const DevicePlan& dev = parsed.value().devices.at(0);
  ASSERT_EQ(dev.instructions.size(), 1u);
  EXPECT_EQ(dev.instructions[0].transfer_id, -1);
  EXPECT_EQ(dev.instructions[0].attn_range, (ItemRange{0, 1}));
  ASSERT_EQ(dev.attn_items.size(), 1u);
  EXPECT_EQ(SerializePlanBinary(parsed.value()), bytes);
}

TEST(PlanBinaryCodec, HostileColumnStreamsAreDataLoss) {
  {
    OneTileDevice d;
    d.flags_width = 3;
    ExpectDataLoss(OneTileStream(d), "column width not 0, 1, 2, 4 or 8");
  }
  {
    // One transfer block whose bytes column claims 8 bytes; the stream ends 4 in.
    StreamBuilder b(1);
    b.Device(0, /*fw=*/1, 0, 0, 0, /*blocks=*/1);
    b.Column(2, 1, {0});  // kind (anchor): one CommLaunch
    b.Empty(5);           // flags, flops, comm, mem, host overhead
    b.Column(-1, 0);      // transfer_id
    b.Column(-1, 0);      // peer
    b.Empty(2);           // tile and reduce counts
    b.Column(1, 0);       // block count
    b.Empty(5 + 7 + 8);
    b.Column(0, 1, {0});  // kind (anchor)
    b.Column(0, 0);       // slot
    b.Column(0, 8);       // bytes, with its data cut short:
    b.Var(0);
    b.Var(0);
    b.Var(0);
    b.Var(0);
    ExpectDataLoss(b.bytes(), "column exceeds payload");
  }
  {
    // 2^25 local chunks in a 142-byte stream: rejected by the pool count bound before
    // anything is sized (the resize would take 640 MiB).
    StreamBuilder b(1);
    b.Device(uint64_t{1} << 25, 0, 0, 0, 0, 0);
    b.Empty(35);
    ASSERT_LT(b.bytes().size(), 160u);
    ExpectDataLoss(b.bytes(), "device pool counts exceed the payload");
  }
  {
    // Two instructions of kinds 0 and 7: a width-1 column from base 0 could hold up to
    // 255, so the header alone does not prove the range, and the 7 must be caught.
    StreamBuilder b(1);
    b.Device(0, /*fw=*/2, 0, 0, 0, 0);
    b.Column(0, 1, {0, 7});  // kind (anchor)
    b.Empty(6);              // flags, flops, comm, mem, host overhead, transfer_id
    b.Column(-1, 0);         // peer
    b.Empty(3 + 5 + 7 + 8 + 4);
    ExpectDataLoss(b.bytes(), "instruction kind out of range");
  }
  {
    // An int32 column from base -1 whose largest delta is 2^63: its top value is past
    // INT32_MAX (and past INT64_MAX as a signed sum), so it must be rejected.
    StreamBuilder b(1);
    b.Device(0, /*fw=*/2, 0, 0, 0, 0);
    b.Column(0, 1, {0, 1});  // kind (anchor)
    b.Empty(5);              // flags, flops, comm, mem, host overhead
    b.Column(-1, 8, {0, uint64_t{1} << 63});  // transfer_id
    b.Column(-1, 0);         // peer
    b.Empty(3 + 5 + 7 + 8 + 4);
    ExpectDataLoss(b.bytes(), "transfer id out of range");
  }
  {
    OneTileDevice d;
    d.tile_count = 0;
    ExpectDataLoss(OneTileStream(d), "do not add up to the pool counts");
  }
  {
    // A tile count above the pool's size is out of range before any sum is taken.
    OneTileDevice d;
    d.tile_count = 2;
    ExpectDataLoss(OneTileStream(d), "instruction tile count exceeds the pool");
  }
  ExpectDataLoss(OneTileStream() + "x", "trailing garbage");
  {
    // A varint with a redundant zero byte decodes to the same value but would not
    // re-encode to itself: block_size 16 (zigzag 32) as 0xA0 0x00 instead of 0x20.
    std::string overlong = OneTileStream();
    ASSERT_EQ(overlong[8], '\x20');
    overlong.replace(8, 1, "\xA0\x00", 2);
    ExpectDataLoss(overlong, "overlong varint");
  }
  {
    // Headers other than the encoder's: a base below the column's minimum, a width
    // wider than the range needs, and an anchor column at width 0.
    OneTileDevice d;
    d.tile_seq_base = -1;
    d.tile_seq = 1;
    ExpectDataLoss(OneTileStream(d), "not the canonical one");
    OneTileDevice wide;
    wide.flags_width = 1;
    ExpectDataLoss(OneTileStream(wide), "not the canonical one");
    OneTileDevice zero_anchor;
    zero_anchor.kind_width = 0;
    ExpectDataLoss(OneTileStream(zero_anchor), "not the canonical one");
  }
  {
    // An empty column must carry the empty header.
    StreamBuilder b(1);
    b.Device(0, 0, 0, 0, 0, 0);
    b.Column(5, 0);
    b.Empty(34);
    ExpectDataLoss(b.bytes(), "empty column with a non-empty header");
  }
}

// The plan codec's fuzz invariant, over seeded bit flips, truncations, byte
// overwrites and splices of real plans: every input is either rejected as DATA_LOSS or
// decodes to a plan that re-encodes to exactly the input bytes. DCP_CODEC_FUZZ_SEED
// overrides the seed, which is echoed so a failure can be replayed.
TEST(PlanBinaryCodec, SeededMutationsAreRejectedOrReencodeIdentically) {
  uint64_t seed = 0x5EEDC0DE;
  if (const char* env = std::getenv("DCP_CODEC_FUZZ_SEED")) {
    seed = std::strtoull(env, nullptr, 0);
  }
  std::printf("plan codec fuzz seed 0x%llx\n", static_cast<unsigned long long>(seed));
  RecordProperty("fuzz_seed", std::to_string(seed));
  Rng plans_rng(23);
  std::vector<std::string> corpus;
  for (int i = 0; i < 3; ++i) {
    corpus.push_back(SerializePlanBinary(PlanRandomCase(plans_rng).plan));
  }
  Rng rng(seed);
  int accepted = 0;
  constexpr int kMutations = 4000;
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
      case 2:  // One byte overwritten with a small value (counts, widths, enums).
        input[rng.NextBounded(input.size())] = static_cast<char>(rng.NextBounded(10));
        break;
      default: {  // Splice: a prefix of one plan, a suffix of another.
        const std::string& b = corpus[rng.NextBounded(corpus.size())];
        input = a.substr(0, rng.NextBounded(a.size())) +
                b.substr(rng.NextBounded(b.size()));
        break;
      }
    }
    StatusOr<BatchPlan> parsed = DeserializePlanBinary(input);
    if (parsed.ok()) {
      ++accepted;
      ASSERT_EQ(SerializePlanBinary(parsed.value()), input)
          << "mutation " << i << " (seed " << seed
          << ") decoded but re-encoded differently";
    } else {
      ASSERT_EQ(parsed.status().code(), StatusCode::kDataLoss)
          << "mutation " << i << " (seed " << seed << "): " << parsed.status().ToString();
    }
  }
  std::printf("plan codec fuzz: %d of %d mutations decoded and re-encoded identically\n",
              accepted, kMutations);
}

TEST_F(PlanStoreTest, RecordSurvivesRoundTripAndRejectsEveryBitFlip) {
  Rng rng(11);
  const PlannedCase p = PlanRandomCase(rng);
  const PlanSignature sig =
      ComputePlanSignature(p.c.seqlens, p.spec, p.cluster, p.options);
  const std::string record = PlanStore::EncodeRecord(sig, p.plan);

  StatusOr<std::pair<PlanSignature, BatchPlan>> decoded = PlanStore::DecodeRecord(record);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().first, sig);
  EXPECT_TRUE(decoded.value().second == p.plan);

  // Every single-bit flip anywhere in the record — header, payload, or the
  // CRC trailer itself — must be caught (the checksum covers everything else, and the
  // trailer flip breaks the checksum comparison). One flip per byte covers the record;
  // all 8 bit positions are cycled through as the offset advances.
  for (size_t byte = 0; byte < record.size(); ++byte) {
    std::string corrupt = record;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << (byte % 8)));
    StatusOr<std::pair<PlanSignature, BatchPlan>> flipped =
        PlanStore::DecodeRecord(corrupt);
    ASSERT_FALSE(flipped.ok()) << "bit flip at byte " << byte << " was accepted";
    ASSERT_EQ(flipped.status().code(), StatusCode::kDataLoss);
  }

  // Truncation at every byte boundary fails cleanly.
  for (size_t len = 0; len < record.size(); len += 1) {
    ASSERT_FALSE(PlanStore::DecodeRecord(std::string_view(record).substr(0, len)).ok())
        << "truncation to " << len << " bytes was accepted";
  }
}

// One seeded mutation for the record and bundle fuzz loops, in the plan codec loop's
// style: one to three bit flips, a truncation, a splice of a prefix of `input` with a
// suffix of a corpus entry, or a length-field edit, which `edit_length` makes because
// only the format knows where its lengths are.
template <typename EditLength>
void Mutate(Rng& rng, const std::vector<std::string>& corpus, std::string& input,
            const EditLength& edit_length) {
  switch (rng.NextBounded(4)) {
    case 0: {
      const uint64_t flips = 1 + rng.NextBounded(3);
      for (uint64_t f = 0; f < flips; ++f) {
        const size_t at = rng.NextBounded(input.size());
        input[at] = static_cast<char>(input[at] ^ (1 << rng.NextBounded(8)));
      }
      break;
    }
    case 1:
      input.resize(rng.NextBounded(input.size()));
      break;
    case 2: {
      const std::string& b = corpus[rng.NextBounded(corpus.size())];
      input = input.substr(0, rng.NextBounded(input.size())) +
              b.substr(rng.NextBounded(b.size()));
      break;
    }
    default:
      edit_length(input);
      break;
  }
}

// The record codec's fuzz invariant: every mutated record is either rejected as
// DATA_LOSS or decodes and re-encodes to exactly its bytes. Each mutation gets a fresh
// CRC trailer, so it reaches the header and payload parsers instead of stopping at the
// checksum. A record keeps its lengths in the plan payload's varint counts, so its
// length-field edit overwrites one payload byte with a small value.
TEST(PlanRecordCodec, SeededMutationsAreRejectedOrReencodeIdentically) {
  constexpr uint64_t kSeed = 0x5EEDF11E;
  std::printf("plan record fuzz seed 0x%llx\n", static_cast<unsigned long long>(kSeed));
  RecordProperty("fuzz_seed", std::to_string(kSeed));
  Rng plans_rng(29);
  std::vector<std::string> corpus;
  for (int i = 0; i < 3; ++i) {
    const PlannedCase p = PlanRandomCase(plans_rng);
    corpus.push_back(PlanStore::EncodeRecord(
        ComputePlanSignature(p.c.seqlens, p.spec, p.cluster, p.options), p.plan));
  }
  constexpr size_t kHeaderBytes = 28;
  Rng rng(kSeed);
  int accepted = 0;
  constexpr int kMutations = 4000;
  for (int i = 0; i < kMutations; ++i) {
    std::string input = corpus[rng.NextBounded(corpus.size())];
    Mutate(rng, corpus, input, [&](std::string& record) {
      const size_t payload = record.size() - kHeaderBytes - 4;
      record[kHeaderBytes + rng.NextBounded(payload)] =
          static_cast<char>(rng.NextBounded(10));
    });
    if (input.size() >= 4) {
      ByteWriter resealed(input.substr(0, input.size() - 4));
      resealed.U32(Crc32(resealed.view()));
      input = resealed.Take();
    }
    StatusOr<std::pair<PlanSignature, BatchPlan>> decoded = PlanStore::DecodeRecord(input);
    if (decoded.ok()) {
      ++accepted;
      ASSERT_EQ(PlanStore::EncodeRecord(decoded.value().first, decoded.value().second),
                input)
          << "mutation " << i << " (seed " << kSeed
          << ") decoded but re-encoded differently";
    } else {
      ASSERT_EQ(decoded.status().code(), StatusCode::kDataLoss)
          << "mutation " << i << " (seed " << kSeed << "): "
          << decoded.status().ToString();
    }
  }
  std::printf("plan record fuzz: %d of %d mutations decoded and re-encoded identically\n",
              accepted, kMutations);
}

// The bundle fuzz invariant: a mutated bundle is either rejected as DATA_LOSS, or
// imported, and either way the store it was imported into holds only records that
// DecodeRecord accepts under their own signature. Length-field edits rewrite the
// record count or one entry's u64 length: off by a little, zero, or arbitrary.
TEST_F(PlanStoreTest, SeededBundleMutationsImportOnlyValidRecords) {
  constexpr uint64_t kSeed = 0xB0DD1E5;
  std::printf("plan bundle fuzz seed 0x%llx\n", static_cast<unsigned long long>(kSeed));
  RecordProperty("fuzz_seed", std::to_string(kSeed));
  Rng plans_rng(31);
  std::vector<PlannedCase> cases;
  for (int i = 0; i < 3; ++i) {
    cases.push_back(PlanRandomCase(plans_rng));
  }
  const auto read_file = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  // Two bundles, of all three plans and of the last two, so splices mix entries.
  std::vector<std::string> corpus;
  for (const size_t first : {size_t{0}, size_t{1}}) {
    const std::string store_dir = StorePath(("src" + std::to_string(first)).c_str());
    StatusOr<std::unique_ptr<PlanStore>> store = PlanStore::Open(store_dir);
    ASSERT_TRUE(store.ok());
    for (size_t c = first; c < cases.size(); ++c) {
      const PlannedCase& p = cases[c];
      ASSERT_TRUE(store.value()
                      ->Put(ComputePlanSignature(p.c.seqlens, p.spec, p.cluster,
                                                 p.options),
                            p.plan)
                      .ok());
    }
    const fs::path bundle = dir_ / "corpus.bundle";
    ASSERT_TRUE(store.value()->ExportBundle(bundle.string()).ok());
    corpus.push_back(read_file(bundle));
  }

  Rng rng(kSeed);
  int imported_records = 0;
  int rejected = 0;
  constexpr int kMutations = 300;
  const fs::path bundle = dir_ / "mutated.bundle";
  const std::string store_dir = StorePath("dst");
  for (int i = 0; i < kMutations; ++i) {
    std::string input = corpus[rng.NextBounded(corpus.size())];
    Mutate(rng, corpus, input, [&](std::string& b) {
      // Offsets of the entries' u64 lengths, walked from the clean bundle.
      std::vector<size_t> lengths;
      for (size_t pos = 16; pos + 8 <= b.size();) {
        lengths.push_back(pos);
        pos += 8 + LoadLE<8>(reinterpret_cast<const unsigned char*>(b.data() + pos));
      }
      const size_t field = rng.NextBounded(lengths.size() + 1);
      if (field == lengths.size()) {
        StoreLE<4>(reinterpret_cast<unsigned char*>(b.data() + 12), rng.NextBounded(6));
        return;
      }
      auto* at = reinterpret_cast<unsigned char*>(b.data() + lengths[field]);
      const uint64_t length = LoadLE<8>(at);
      const uint64_t edits[] = {length + rng.NextBounded(17) - 8, 0, rng.NextU64()};
      StoreLE<8>(at, edits[rng.NextBounded(3)]);
    });
    {
      std::ofstream out(bundle, std::ios::binary | std::ios::trunc);
      out << input;
    }
    fs::remove_all(store_dir);
    StatusOr<std::unique_ptr<PlanStore>> store = PlanStore::Open(store_dir);
    ASSERT_TRUE(store.ok());
    StatusOr<int> imported = store.value()->ImportBundle(bundle.string());
    if (!imported.ok()) {
      ++rejected;
      ASSERT_EQ(imported.status().code(), StatusCode::kDataLoss)
          << "mutation " << i << " (seed " << kSeed << "): "
          << imported.status().ToString();
    }
    for (const PlanSignature& sig : store.value()->Signatures()) {
      const std::string record =
          read_file(fs::path(store_dir) / (sig.ToHex() + ".dcpplan"));
      StatusOr<std::pair<PlanSignature, BatchPlan>> decoded =
          PlanStore::DecodeRecord(record);
      ASSERT_TRUE(decoded.ok()) << "mutation " << i << " (seed " << kSeed
                                << ") imported a record DecodeRecord rejects: "
                                << decoded.status().ToString();
      ASSERT_EQ(decoded.value().first, sig) << "mutation " << i << " (seed " << kSeed
                                            << ") filed a record under another key";
      ++imported_records;
    }
  }
  std::printf("plan bundle fuzz: %d of %d mutations rejected, %d valid records imported\n",
              rejected, kMutations, imported_records);
}

TEST_F(PlanStoreTest, PutLoadContainsAndReopen) {
  Rng rng(13);
  const PlannedCase p = PlanRandomCase(rng);
  const PlanSignature sig =
      ComputePlanSignature(p.c.seqlens, p.spec, p.cluster, p.options);

  {
    StatusOr<std::unique_ptr<PlanStore>> store = PlanStore::Open(StorePath());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_FALSE(store.value()->Contains(sig));
    StatusOr<BatchPlan> missing = store.value()->Load(sig);
    EXPECT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
    ASSERT_TRUE(store.value()->Put(sig, p.plan).ok());
    EXPECT_TRUE(store.value()->Contains(sig));
  }
  // A fresh store on the same directory (fresh process in miniature) indexes and serves
  // the record.
  StatusOr<std::unique_ptr<PlanStore>> reopened = PlanStore::Open(StorePath());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->Signatures().size(), 1u);
  ASSERT_TRUE(reopened.value()->Contains(sig));
  StatusOr<BatchPlan> loaded = reopened.value()->Load(sig);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value() == p.plan);
  EXPECT_EQ(reopened.value()->stats().hits, 1);

  // Storing under the zero signature is rejected (it is the "no signature" sentinel).
  EXPECT_FALSE(reopened.value()->Put(PlanSignature{}, p.plan).ok());
}

// dcp_store_read_us is the record-load latency: an index miss loads nothing, so it
// must not add a (near-zero) sample — on a cold workload every new batch is a miss.
TEST_F(PlanStoreTest, ReadLatencyCountsRecordLoadsNotIndexMisses) {
  Rng rng(17);
  const PlannedCase p = PlanRandomCase(rng);
  const PlanSignature sig =
      ComputePlanSignature(p.c.seqlens, p.spec, p.cluster, p.options);
  metrics::Registry registry;
  StatusOr<std::unique_ptr<PlanStore>> store = PlanStore::Open(StorePath(), &registry);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const metrics::Histogram* read_us = registry.GetHistogram("dcp_store_read_us");
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(store.value()->Load(sig).status().code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(read_us->Snapshot().count(), 0);
  ASSERT_TRUE(store.value()->Put(sig, p.plan).ok());
  ASSERT_TRUE(store.value()->Load(sig).ok());
  EXPECT_EQ(read_us->Snapshot().count(), 1);
}

TEST_F(PlanStoreTest, CorruptRecordOnDiskIsCountedSkippedAndReplannedAround) {
  Rng rng(14);
  const PlannedCase p = PlanRandomCase(rng);
  const PlanSignature sig =
      ComputePlanSignature(p.c.seqlens, p.spec, p.cluster, p.options);
  {
    StatusOr<std::unique_ptr<PlanStore>> store = PlanStore::Open(StorePath());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Put(sig, p.plan).ok());
  }
  // Flip one byte in the middle of the record file.
  const fs::path record_path =
      fs::path(StorePath()) / (sig.ToHex() + ".dcpplan");
  ASSERT_TRUE(fs::exists(record_path));
  {
    std::fstream f(record_path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    f.seekp(size / 2);
    char c = 0;
    f.seekg(size / 2);
    f.read(&c, 1);
    f.seekp(size / 2);
    c = static_cast<char>(c ^ 0x40);
    f.write(&c, 1);
  }

  StatusOr<std::unique_ptr<PlanStore>> store = PlanStore::Open(StorePath());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->Contains(sig));
  StatusOr<BatchPlan> loaded = store.value()->Load(sig);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.value()->stats().corrupt_skipped, 1);
  // The bad record is dropped from the index; a rewrite heals it.
  EXPECT_FALSE(store.value()->Contains(sig));
  ASSERT_TRUE(store.value()->Put(sig, p.plan).ok());
  EXPECT_TRUE(store.value()->Load(sig).ok());
}

TEST_F(PlanStoreTest, MismatchedSignatureFilenameIsRejected) {
  Rng rng(15);
  const PlannedCase p = PlanRandomCase(rng);
  const PlanSignature sig =
      ComputePlanSignature(p.c.seqlens, p.spec, p.cluster, p.options);
  PlanSignature other = sig;
  other.lo ^= 0xDEADBEEFULL;
  {
    StatusOr<std::unique_ptr<PlanStore>> store = PlanStore::Open(StorePath());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Put(sig, p.plan).ok());
  }
  // Rename the record to another signature's filename: the embedded signature no longer
  // matches the key, so serving it would hand back the wrong plan.
  fs::rename(fs::path(StorePath()) / (sig.ToHex() + ".dcpplan"),
             fs::path(StorePath()) / (other.ToHex() + ".dcpplan"));
  StatusOr<std::unique_ptr<PlanStore>> store = PlanStore::Open(StorePath());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->Contains(other));
  StatusOr<BatchPlan> loaded = store.value()->Load(other);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.value()->stats().corrupt_skipped, 1);
}

TEST_F(PlanStoreTest, SecondEngineOnSamePathServesStoreHitsBitIdenticalToFreshPlans) {
  Rng rng(16);
  const GeneratedCase c = GenerateCase(rng);
  ClusterSpec cluster;
  cluster.num_nodes = 2;
  cluster.devices_per_node = 2;
  const MaskSpec spec = SmallMaskSpec(c.mask_kind);

  EngineOptions engine_options;
  engine_options.planner = MakeOptions(c);
  engine_options.planner_threads = 1;
  engine_options.plan_store_path = StorePath();

  std::string first_canonical;
  {
    Engine writer(cluster, engine_options);
    ASSERT_TRUE(writer.store_status().ok()) << writer.store_status().ToString();
    StatusOr<PlanHandle> handle = writer.Plan(c.seqlens, spec);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    first_canonical = SerializeTimeless(handle.value()->plan);
    const PlanCacheStats stats = writer.cache_stats();
    EXPECT_EQ(stats.store_writes, 1);
    EXPECT_EQ(stats.store_hits, 0);
  }

  // Fresh engine, fresh in-memory cache, same store path: the plan comes from disk
  // (counted as a store hit) and matches a freshly computed PlanBatch bit for bit.
  Engine reader(cluster, engine_options);
  StatusOr<PlanHandle> warm = reader.Plan(c.seqlens, spec);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  {
    const PlanCacheStats stats = reader.cache_stats();
    EXPECT_EQ(stats.store_hits, 1);
    EXPECT_EQ(stats.store_writes, 0);
    EXPECT_EQ(stats.misses, 1);
  }
  EXPECT_EQ(SerializeTimeless(warm.value()->plan), first_canonical);

  std::vector<SequenceMask> masks = BuildBatchMasks(spec, c.seqlens);
  BatchPlan fresh = PlanBatch(c.seqlens, masks, cluster, engine_options.planner);
  EXPECT_EQ(SerializeTimeless(warm.value()->plan), SerializeTimeless(fresh));

  // The store-served handle carries usable masks (derived, not persisted).
  ASSERT_EQ(warm.value()->masks.size(), c.seqlens.size());
  for (size_t s = 0; s < c.seqlens.size(); ++s) {
    EXPECT_EQ(warm.value()->masks[s].length(), c.seqlens[s]);
  }

  // Replanning the same signature is now an in-memory hit, not another disk read.
  StatusOr<PlanHandle> again = reader.Plan(c.seqlens, spec);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().get(), warm.value().get());
  EXPECT_EQ(reader.cache_stats().store_hits, 1);
  EXPECT_EQ(reader.cache_stats().hits, 1);
}

TEST_F(PlanStoreTest, EngineSkipsCorruptStoreRecordAndRecovers) {
  Rng rng(17);
  const GeneratedCase c = GenerateCase(rng);
  ClusterSpec cluster;
  cluster.num_nodes = 1;
  cluster.devices_per_node = 2;
  const MaskSpec spec = SmallMaskSpec(c.mask_kind);

  EngineOptions engine_options;
  engine_options.planner = MakeOptions(c);
  engine_options.planner_threads = 1;
  engine_options.plan_store_path = StorePath();

  std::string canonical;
  {
    Engine writer(cluster, engine_options);
    StatusOr<PlanHandle> handle = writer.Plan(c.seqlens, spec);
    ASSERT_TRUE(handle.ok());
    canonical = SerializeTimeless(handle.value()->plan);
  }
  // Truncate the record to simulate a torn write under an old (pre-atomic) writer.
  const PlanSignature sig = ComputePlanSignature(c.seqlens, spec, cluster,
                                                 engine_options.planner);
  const fs::path record_path = fs::path(StorePath()) / (sig.ToHex() + ".dcpplan");
  ASSERT_TRUE(fs::exists(record_path));
  fs::resize_file(record_path, fs::file_size(record_path) / 2);

  Engine reader(cluster, engine_options);
  StatusOr<PlanHandle> replanned = reader.Plan(c.seqlens, spec);
  ASSERT_TRUE(replanned.ok()) << replanned.status().ToString();
  const PlanCacheStats stats = reader.cache_stats();
  EXPECT_EQ(stats.store_corrupt_skipped, 1);
  EXPECT_EQ(stats.store_hits, 0);
  // The replanned result is correct and was written back, healing the store.
  EXPECT_EQ(SerializeTimeless(replanned.value()->plan), canonical);
  EXPECT_EQ(stats.store_writes, 1);

  Engine healed(cluster, engine_options);
  StatusOr<PlanHandle> warm = healed.Plan(c.seqlens, spec);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(healed.cache_stats().store_hits, 1);
  EXPECT_EQ(SerializeTimeless(warm.value()->plan), canonical);
}

// Stores are caches, so a record from an older format is not decoded: it is skipped
// as corrupt, replanned, and rewritten in the current format. Version 1 is the
// pre-slim IR; version 2 is the varint device section that column-packed devices
// (version 3) replaced; versions 1-3 wrapped the plan payload in a {u32 tag, u64
// length} section that version 4 dropped.
TEST_F(PlanStoreTest, OlderRecordVersionIsReplannedAndRewritten) {
  Rng rng(19);
  const GeneratedCase c = GenerateCase(rng);
  ClusterSpec cluster;
  cluster.num_nodes = 1;
  cluster.devices_per_node = 2;
  const MaskSpec spec = SmallMaskSpec(c.mask_kind);

  for (const uint32_t version : {1u, 2u, 3u}) {
    SCOPED_TRACE("record version " + std::to_string(version));
    EngineOptions engine_options;
    engine_options.planner = MakeOptions(c);
    engine_options.planner_threads = 1;
    engine_options.plan_store_path = StorePath(("v" + std::to_string(version)).c_str());
    {
      Engine writer(cluster, engine_options);
      ASSERT_TRUE(writer.Plan(c.seqlens, spec).ok());
    }
    const PlanSignature sig = ComputePlanSignature(c.seqlens, spec, cluster,
                                                   engine_options.planner);
    const fs::path record_path =
        fs::path(engine_options.plan_store_path) / (sig.ToHex() + ".dcpplan");
    std::string record;
    {
      std::ifstream in(record_path, std::ios::binary);
      record.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    // Header (28 bytes), then the payload: "DCPB" + its version.
    ASSERT_GT(record.size(), 28u + 8u + 4u);
    ASSERT_EQ(record.substr(8, 4), std::string("\x04\x00\x00\x00", 4));
    ASSERT_EQ(record.substr(28, 8), std::string("DCPB\x03\x00\x00\x00", 8));
    // Rebuild it as that version wrote it: its version word, the payload inside the
    // plan section with the payload's version word set to the plan format of its day,
    // and a valid checksum, so the versions are the only thing wrong with it.
    std::string payload = record.substr(28, record.size() - 28 - 4);
    ByteWriter version_word;
    version_word.U32(version);
    payload.replace(4, 4, version_word.view());
    ByteWriter old;
    old.Bytes(std::string_view(record).substr(0, 8));
    old.U32(version);
    old.Bytes(std::string_view(record).substr(12, 16));
    old.U32(/*plan section tag=*/1);
    old.U64(payload.size());
    old.Bytes(payload);
    old.U32(Crc32(old.view()));
    record = old.Take();
    {
      std::ofstream out(record_path, std::ios::binary | std::ios::trunc);
      out << record;
    }
    EXPECT_FALSE(PlanStore::DecodeRecord(record).ok());

    {
      Engine reader(cluster, engine_options);
      PlanOrigin origin = PlanOrigin::kMemoryCache;
      StatusOr<PlanHandle> plan = reader.PlanWithBlockSize(c.seqlens, spec, 0, &origin);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      EXPECT_EQ(origin, PlanOrigin::kFresh);
      const PlanCacheStats stats = reader.cache_stats();
      EXPECT_EQ(stats.store_corrupt_skipped, 1);
      EXPECT_EQ(stats.store_hits, 0);
      EXPECT_EQ(stats.store_writes, 1);
    }

    Engine rewritten(cluster, engine_options);
    PlanOrigin origin = PlanOrigin::kFresh;
    StatusOr<PlanHandle> warm = rewritten.PlanWithBlockSize(c.seqlens, spec, 0, &origin);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(origin, PlanOrigin::kStoreCache);
    EXPECT_EQ(rewritten.cache_stats().store_hits, 1);
    EXPECT_EQ(rewritten.cache_stats().store_corrupt_skipped, 0);
  }
}

TEST_F(PlanStoreTest, BundleExportImportMovesRecordsBetweenStores) {
  Rng rng(18);
  const PlannedCase a = PlanRandomCase(rng);
  const PlannedCase b = PlanRandomCase(rng);
  const PlanSignature sig_a =
      ComputePlanSignature(a.c.seqlens, a.spec, a.cluster, a.options);
  const PlanSignature sig_b =
      ComputePlanSignature(b.c.seqlens, b.spec, b.cluster, b.options);
  ASSERT_FALSE(sig_a == sig_b);

  const std::string bundle = (dir_ / "plans.bundle").string();
  {
    StatusOr<std::unique_ptr<PlanStore>> src = PlanStore::Open(StorePath("src"));
    ASSERT_TRUE(src.ok());
    ASSERT_TRUE(src.value()->Put(sig_a, a.plan).ok());
    ASSERT_TRUE(src.value()->Put(sig_b, b.plan).ok());
    StatusOr<int> exported = src.value()->ExportBundle(bundle);
    ASSERT_TRUE(exported.ok()) << exported.status().ToString();
    EXPECT_EQ(exported.value(), 2);
  }

  StatusOr<std::unique_ptr<PlanStore>> dst = PlanStore::Open(StorePath("dst"));
  ASSERT_TRUE(dst.ok());
  StatusOr<int> imported = dst.value()->ImportBundle(bundle);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_EQ(imported.value(), 2);
  StatusOr<BatchPlan> loaded_a = dst.value()->Load(sig_a);
  StatusOr<BatchPlan> loaded_b = dst.value()->Load(sig_b);
  ASSERT_TRUE(loaded_a.ok());
  ASSERT_TRUE(loaded_b.ok());
  EXPECT_TRUE(loaded_a.value() == a.plan);
  EXPECT_TRUE(loaded_b.value() == b.plan);

  // A truncated bundle is a clean DATA_LOSS error.
  fs::resize_file(bundle, fs::file_size(bundle) - 5);
  StatusOr<std::unique_ptr<PlanStore>> dst2 = PlanStore::Open(StorePath("dst2"));
  ASSERT_TRUE(dst2.ok());
  StatusOr<int> truncated = dst2.value()->ImportBundle(bundle);
  EXPECT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace dcp
