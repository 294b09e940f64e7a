#include "runtime/instructions.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace dcp {

std::string BufKindName(BufKind kind) {
  switch (kind) {
    case BufKind::kQ:
      return "Q";
    case BufKind::kKV:
      return "KV";
    case BufKind::kO:
      return "O";
    case BufKind::kAcc:
      return "Acc";
    case BufKind::kDO:
      return "dO";
    case BufKind::kDQ:
      return "dQ";
    case BufKind::kDKV:
      return "dKV";
    case BufKind::kDelta:
      return "Delta";
    case BufKind::kNumKinds:
      break;
  }
  return "?";
}

std::string InstrKindName(InstrKind kind) {
  switch (kind) {
    case InstrKind::kBlockwiseAttention:
      return "BlockwiseAttention";
    case InstrKind::kBlockwiseReduction:
      return "BlockwiseReduction";
    case InstrKind::kCommLaunch:
      return "CommLaunch";
    case InstrKind::kCommWait:
      return "CommWait";
  }
  return "?";
}

std::string ReduceModeName(ReduceMode mode) {
  switch (mode) {
    case ReduceMode::kMergeSoftmax:
      return "MergeSoftmax";
    case ReduceMode::kFinalize:
      return "Finalize";
    case ReduceMode::kSum:
      return "Sum";
    case ReduceMode::kComputeDelta:
      return "ComputeDelta";
  }
  return "?";
}

namespace {

template <typename T>
void AppendItem(std::vector<T>& pool, ItemRange& range, const T& item) {
  DCP_CHECK_EQ(range.end, pool.size())
      << "items can only be added to the most recently appended instruction";
  pool.push_back(item);
  ++range.end;
}

}  // namespace

Instruction& DevicePlan::Append(std::vector<Instruction>& stream, InstrKind kind) {
  Instruction& instr = stream.emplace_back();
  instr.kind = kind;
  const auto open = [](size_t pool_size) {
    const auto at = static_cast<uint32_t>(pool_size);
    return ItemRange{at, at};
  };
  instr.attn_range = open(attn_items.size());
  instr.reduce_range = open(reduce_items.size());
  instr.block_range = open(blocks.size());
  return instr;
}

void DevicePlan::Add(Instruction& instr, const AttentionWorkItem& item) {
  AppendItem(attn_items, instr.attn_range, item);
}
void DevicePlan::Add(Instruction& instr, const ReduceItem& item) {
  AppendItem(reduce_items, instr.reduce_range, item);
}
void DevicePlan::Add(Instruction& instr, const TransferBlock& block) {
  AppendItem(blocks, instr.block_range, block);
}

std::string PlanToString(const BatchPlan& plan, int max_instructions_per_device) {
  std::ostringstream out;
  out << "BatchPlan: " << plan.num_devices() << " devices, "
      << plan.layout.num_sequences() << " sequences, block_size=" << plan.layout.block_size
      << ", comm=" << plan.stats.total_comm_bytes / (1 << 20) << "MiB ("
      << plan.stats.inter_node_comm_bytes / (1 << 20) << "MiB inter-node)\n";
  for (int d = 0; d < plan.num_devices(); ++d) {
    const DevicePlan& dev = plan.devices[static_cast<size_t>(d)];
    out << "  device " << d << ": " << dev.local_chunks.size() << " local chunks, "
        << dev.instructions.size() << " fw instrs, " << dev.backward_instructions.size()
        << " bw instrs\n";
    int shown = 0;
    for (const Instruction& instr : dev.instructions) {
      if (shown++ >= max_instructions_per_device) {
        out << "    ...\n";
        break;
      }
      out << "    " << InstrKindName(instr.kind);
      switch (instr.kind) {
        case InstrKind::kBlockwiseAttention:
          out << " tiles=" << instr.attn_range.size() << " flops=" << instr.flops;
          break;
        case InstrKind::kBlockwiseReduction:
          out << " items=" << instr.reduce_range.size();
          break;
        case InstrKind::kCommLaunch:
          out << (instr.is_send ? " send" : " recv") << " id=" << instr.transfer_id
              << " peer=" << instr.peer << " bytes=" << instr.comm_bytes;
          break;
        case InstrKind::kCommWait:
          out << " id=" << instr.transfer_id;
          break;
      }
      out << "\n";
    }
  }
  return out.str();
}

// --- Binary encoding -------------------------------------------------------
//
// Compact byte-oriented encoding, assembled byte by byte so it is identical on any
// host: integers are LEB128 varints (signed values zigzag-folded first, so the small
// positive-or-negative ids real plans are full of take one byte), doubles are bit_cast
// to fixed 8-byte little-endian words (exact, no decimal round-trip). Layout:
//
//   "DCPB" u32 version (2)
//   layout   block_size, num_groups/heads_per_group/head_dim/bytes_per_element,
//            num_seqs, seqlens[]
//   home     num_chunks, devices[]
//   stats    all nine PlanStats fields
//   devices  count, then per device: num_slots[kNumBufKinds],
//            num_local/num_fw/num_bw, local chunks, fw instrs, bw instrs
//   instr    kind, flags, cost annotations, transfer_id, peer, then its attention,
//            reduce and transfer-block counts, each followed by its items; an attention
//            item is seq, group, q_chunk, kv_chunk, q_slot, kv_slot, full
//
// Only the current version decodes: plans are cached, so a plan in an older version
// is replanned.

namespace {

// Item-count sanity bound: far above any real plan, low enough that a corrupt count can
// never drive a pathological allocation loop.
constexpr uint64_t kMaxPlanItems = uint64_t{1} << 26;

constexpr int kMaxInstrKind = static_cast<int>(InstrKind::kCommWait);
constexpr int kMaxReduceMode = static_cast<int>(ReduceMode::kComputeDelta);

constexpr char kBinaryMagic[4] = {'D', 'C', 'P', 'B'};
constexpr uint32_t kPlanBinaryVersion = 2;

class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      U8(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      U8(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  // Unsigned LEB128.
  void Var(uint64_t v) {
    while (v >= 0x80) {
      U8(static_cast<uint8_t>(0x80 | (v & 0x7F)));
      v >>= 7;
    }
    U8(static_cast<uint8_t>(v));
  }
  // Zigzag-folded varint for signed values.
  void Zig(int64_t v) {
    Var((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
  }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Count(size_t v) {
    DCP_CHECK_LE(v, kMaxPlanItems);
    Var(v);
  }
  // Length-prefixed byte string (service wire messages).
  void Str(std::string_view s) {
    Count(s.size());
    buf_.append(s);
  }

  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

// Bounds-checked cursor over the binary form. Reads return values directly and latch
// the FIRST failure (with its offset) instead of threading a Status through every field
// read — the decoder checks `failed()` at item granularity, which keeps full validation
// while running several times faster than a Status-per-byte design (the store hit path
// decodes ~100KB records; this is its inner loop). After a failure every further read
// returns 0, so a checkpoint per loop iteration bounds the garbage work to one item.
// The per-field reads are forced inline: an attention item is ~15 of them, and as
// calls they cost about a sixth of a record decode.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  bool failed() const { return failed_; }

  void SetFail(const char* what) {
    if (!failed_) {
      failed_ = true;
      error_ = std::string(what) + " at offset " + std::to_string(pos_);
    }
  }
  // The latched failure as a Status (DATA_LOSS); only meaningful when failed().
  Status TakeStatus() const { return Status::DataLoss("plan binary: " + error_); }
  Status Fail(const std::string& what) {
    return Status::DataLoss("plan binary: " + what + " at offset " +
                            std::to_string(pos_));
  }

  [[gnu::always_inline]] uint8_t U8() {
    if (pos_ >= data_.size()) {
      SetFail("truncated byte");
      return 0;
    }
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint32_t U32() {
    if (remaining() < 4) {
      SetFail("truncated u32");
      pos_ = data_.size();
      return 0;
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  uint64_t U64() {
    if (remaining() < 8) {
      SetFail("truncated u64");
      pos_ = data_.size();
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  [[gnu::always_inline]] uint64_t Var() {
    // One-byte varints — most slots, ids, counts and flags in a plan — stay inline.
    if (!failed_ && pos_ < data_.size()) {
      const auto b = static_cast<uint8_t>(data_[pos_]);
      if (b < 0x80) {
        ++pos_;
        return b;
      }
    }
    return VarSlow();
  }
  [[gnu::always_inline]] int64_t Zig() {
    const uint64_t v = Var();
    return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }
  [[gnu::always_inline]] int32_t Zig32(const char* what) {
    const int64_t v = Zig();
    if (v < INT32_MIN || v > INT32_MAX) {
      SetFail(what);
      return 0;
    }
    return static_cast<int32_t>(v);
  }
  double F64() {
    if (remaining() < 8) {
      SetFail("truncated f64");
      pos_ = data_.size();
      return 0.0;
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return std::bit_cast<double>(v);
  }
  // Length-prefixed byte string, bounded both by the caller's limit and the remaining
  // payload before any allocation.
  std::string Str(size_t max_len, const char* what) {
    const uint64_t len = Var();
    if (failed_) {
      return {};
    }
    if (len > max_len || len > remaining()) {
      SetFail(what);
      return {};
    }
    std::string out(data_.substr(pos_, static_cast<size_t>(len)));
    pos_ += static_cast<size_t>(len);
    return out;
  }
  // Like Str, but aliases the input instead of copying — the zero-copy request decode.
  std::string_view StrView(size_t max_len, const char* what) {
    const uint64_t len = Var();
    if (failed_) {
      return {};
    }
    if (len > max_len || len > remaining()) {
      SetFail(what);
      return {};
    }
    std::string_view out = data_.substr(pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return out;
  }
  // Reads a count and proves `count * min_item_bytes` fits in the remaining payload, so
  // a corrupt count can neither drive a huge allocation nor a long parse loop.
  uint32_t BoundedCount(size_t min_item_bytes, const char* what) {
    const uint64_t v = Var();
    if (failed_) {
      return 0;
    }
    if (v > kMaxPlanItems || v * min_item_bytes > remaining()) {
      SetFail(what);
      return 0;
    }
    return static_cast<uint32_t>(v);
  }

 private:
  // Every varint the inline path does not take, with every check: with 9 bytes left no
  // per-byte bounds check is needed, and a varint of at most 9 bytes (63 payload bits)
  // cannot overflow. Anything else — a failed reader, the payload's tail, a 10-byte
  // varint — takes the checked loop from the start, so results and errors are exactly
  // the loop's.
  uint64_t VarSlow() {
    if (!failed_ && remaining() >= 9) {
      const char* p = data_.data() + pos_;
      uint64_t v = 0;
      for (int i = 0; i < 9; ++i) {
        const auto b = static_cast<uint8_t>(p[i]);
        v |= static_cast<uint64_t>(b & 0x7F) << (7 * i);
        if (b < 0x80) {
          pos_ += static_cast<size_t>(i) + 1;
          return v;
        }
      }
    }
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (shift >= 64) {
        SetFail("varint too long");
        return 0;
      }
      const uint8_t b = U8();
      if (failed_) {
        return 0;
      }
      // The 10th byte of a 64-bit varint only has room for bit 0; payload bits that
      // would shift past bit 63 are an encoding error, not silently droppable.
      if (shift == 63 && (b & 0x7E) != 0) {
        SetFail("varint overflows 64 bits");
        return 0;
      }
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        return v;
      }
      shift += 7;
    }
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

// Minimum encoded sizes (every varint is at least one byte), used to bound counts
// before allocating.
constexpr size_t kRefBytes = 2;                            // u8 kind + varint slot.
constexpr size_t kAttnItemBytes = 7;
constexpr size_t kReduceItemBytes = 1 + 3 * kRefBytes + 1;
constexpr size_t kTransferBlockBytes = kRefBytes + 2;
constexpr size_t kLocalChunkBytes = 5;
constexpr size_t kInstrHeaderBytes = 2 + 8 + 2 + 8 + 2 + 3;
constexpr size_t kDeviceHeaderBytes = kNumBufKinds + 3;

void WriteRefBin(ByteWriter& w, const BlockRef& ref) {
  w.U8(static_cast<uint8_t>(ref.kind));
  w.Zig(ref.slot);
}

[[gnu::always_inline]] inline BlockRef ReadRefBin(ByteReader& r) {
  BlockRef ref;
  const uint8_t kind = r.U8();
  if (kind >= kNumBufKinds) {
    r.SetFail("block-ref kind out of range");
    return ref;
  }
  ref.kind = static_cast<BufKind>(kind);
  ref.slot = r.Zig32("block-ref slot out of range");
  return ref;
}

// Next unwritten index of each pool while a device's instructions are encoded: the
// format carries per-instruction counts, so the ranges must tile each pool in order.
struct PoolCursor {
  uint32_t attn = 0;
  uint32_t reduce = 0;
  uint32_t blocks = 0;
};

void CheckCanonical(ItemRange range, uint32_t* next, const char* pool) {
  DCP_CHECK_EQ(range.begin, *next)
      << pool << " range is not in canonical stream order; the plan has no encoding";
  *next = range.end;
}

void WriteInstructionBin(ByteWriter& w, const DevicePlan& dev, const Instruction& instr,
                         PoolCursor& cursor) {
  CheckCanonical(instr.attn_range, &cursor.attn, "attention item");
  CheckCanonical(instr.reduce_range, &cursor.reduce, "reduce item");
  CheckCanonical(instr.block_range, &cursor.blocks, "transfer block");
  w.U8(static_cast<uint8_t>(instr.kind));
  w.U8(static_cast<uint8_t>((instr.backward ? 1 : 0) | (instr.is_send ? 2 : 0)));
  w.F64(instr.flops);
  w.Zig(instr.comm_bytes);
  w.Zig(instr.mem_bytes);
  w.F64(instr.host_overhead);
  w.Zig(instr.transfer_id);
  w.Zig(instr.peer);
  w.Count(instr.attn_range.size());
  w.Count(instr.reduce_range.size());
  w.Count(instr.block_range.size());
  for (const AttentionWorkItem& item : dev.attn_items_of(instr)) {
    w.Zig(item.seq);
    w.Zig(item.group);
    w.Zig(item.q_chunk);
    w.Zig(item.kv_chunk);
    w.Zig(item.q_slot);
    w.Zig(item.kv_slot);
    w.U8(item.full ? 1 : 0);
  }
  for (const ReduceItem& item : dev.reduce_items_of(instr)) {
    w.U8(static_cast<uint8_t>(item.mode));
    WriteRefBin(w, item.dst);
    WriteRefBin(w, item.src0);
    WriteRefBin(w, item.src1);
    w.Zig(item.token_count);
  }
  for (const TransferBlock& block : dev.blocks_of(instr)) {
    WriteRefBin(w, block.ref);
    w.Zig(block.bytes);
    w.Zig(block.token_count);
  }
}

// One device's items, parsed in stream order before they are copied into the device's
// pools: the per-instruction counts only add up to a pool's size at the end of the
// device, and sizing each pool once, exactly, is what keeps a decode at a few
// allocations per device. Thread-local so the capacity is reused across decodes.
struct PoolScratch {
  std::vector<AttentionWorkItem> attn;
  std::vector<ReduceItem> reduce;
  std::vector<TransferBlock> blocks;

  // Empties the pools. One that a large hostile plan grew past any real device's size
  // gives its memory back at the next device or decode instead of keeping it for the
  // thread's lifetime.
  void Clear() {
    ClearPool(attn);
    ClearPool(reduce);
    ClearPool(blocks);
  }

 private:
  static constexpr size_t kMaxRetainedItems = size_t{1} << 16;

  template <typename T>
  static void ClearPool(std::vector<T>& pool) {
    if (pool.capacity() > kMaxRetainedItems) {
      std::vector<T>().swap(pool);
    } else {
      pool.clear();
    }
  }
};

// The range a pool grew by since `begin` items.
ItemRange RangeFrom(size_t begin, size_t pool_size) {
  return {static_cast<uint32_t>(begin), static_cast<uint32_t>(pool_size)};
}

Status ReadInstructionBin(ByteReader& r, PoolScratch& pools, Instruction* instr) {
  const uint8_t kind = r.U8();
  if (kind > kMaxInstrKind) {
    return r.Fail("instruction kind out of range");
  }
  const uint8_t flags = r.U8();
  if (flags > 3) {
    return r.Fail("instruction flags out of range");
  }
  instr->kind = static_cast<InstrKind>(kind);
  instr->backward = (flags & 1) != 0;
  instr->is_send = (flags & 2) != 0;
  instr->flops = r.F64();
  instr->comm_bytes = r.Zig();
  instr->mem_bytes = r.Zig();
  instr->host_overhead = r.F64();
  instr->transfer_id = r.Zig32("transfer id out of range");
  instr->peer = r.Zig32("peer device out of range");
  const uint32_t num_attn = r.BoundedCount(kAttnItemBytes, "attention item count");
  const uint32_t num_reduce = r.BoundedCount(kReduceItemBytes, "reduce item count");
  const uint32_t num_blocks = r.BoundedCount(kTransferBlockBytes, "transfer count");
  if (r.failed()) {
    return r.TakeStatus();
  }
  const size_t attn_begin = pools.attn.size();
  for (uint32_t i = 0; i < num_attn; ++i) {
    AttentionWorkItem& item = pools.attn.emplace_back();
    item.seq = r.Zig32("attention seq out of range");
    item.group = r.Zig32("attention group out of range");
    item.q_chunk = r.Zig32("attention q chunk out of range");
    item.kv_chunk = r.Zig32("attention kv chunk out of range");
    item.q_slot = r.Zig32("attention q slot out of range");
    item.kv_slot = r.Zig32("attention kv slot out of range");
    const uint8_t full = r.U8();
    if (full > 1) {
      return r.Fail("attention item full flag out of range");
    }
    item.full = full != 0;
    if (r.failed()) {
      return r.TakeStatus();
    }
  }
  instr->attn_range = RangeFrom(attn_begin, pools.attn.size());
  const size_t reduce_begin = pools.reduce.size();
  for (uint32_t i = 0; i < num_reduce; ++i) {
    ReduceItem& item = pools.reduce.emplace_back();
    const uint8_t mode = r.U8();
    if (mode > kMaxReduceMode) {
      return r.Fail("reduce mode out of range");
    }
    item.mode = static_cast<ReduceMode>(mode);
    item.dst = ReadRefBin(r);
    item.src0 = ReadRefBin(r);
    item.src1 = ReadRefBin(r);
    item.token_count = r.Zig();
    if (r.failed()) {
      return r.TakeStatus();
    }
  }
  instr->reduce_range = RangeFrom(reduce_begin, pools.reduce.size());
  const size_t blocks_begin = pools.blocks.size();
  for (uint32_t i = 0; i < num_blocks; ++i) {
    TransferBlock& block = pools.blocks.emplace_back();
    block.ref = ReadRefBin(r);
    block.bytes = r.Zig();
    block.token_count = r.Zig();
    if (r.failed()) {
      return r.TakeStatus();
    }
  }
  instr->block_range = RangeFrom(blocks_begin, pools.blocks.size());
  return Status::Ok();
}

}  // namespace

std::string SerializePlanBinary(const BatchPlan& plan) {
  ByteWriter w;
  for (char c : kBinaryMagic) {
    w.U8(static_cast<uint8_t>(c));
  }
  w.U32(kPlanBinaryVersion);
  const BatchLayout& layout = plan.layout;
  w.Zig(layout.block_size);
  w.Zig(layout.num_groups);
  w.Zig(layout.heads_per_group);
  w.Zig(layout.head_dim);
  w.Zig(layout.bytes_per_element);
  w.Count(layout.seqlens.size());
  for (int64_t len : layout.seqlens) {
    w.Zig(len);
  }
  w.Count(plan.chunk_home.size());
  for (DeviceId d : plan.chunk_home) {
    w.Zig(d);
  }
  w.Zig(plan.stats.total_comm_bytes);
  w.Zig(plan.stats.inter_node_comm_bytes);
  w.Zig(plan.stats.max_device_comm_bytes);
  w.F64(plan.stats.total_flops);
  w.F64(plan.stats.max_device_flops);
  w.Zig(plan.stats.max_device_owned_bytes);
  w.Zig(plan.stats.min_device_owned_bytes);
  w.F64(plan.stats.planning_seconds);
  w.F64(plan.stats.partition_cost);
  w.Count(plan.devices.size());
  for (const DevicePlan& dev : plan.devices) {
    for (int32_t slots : dev.num_slots) {
      w.Zig(slots);
    }
    w.Count(dev.local_chunks.size());
    w.Count(dev.instructions.size());
    w.Count(dev.backward_instructions.size());
    for (const LocalChunk& chunk : dev.local_chunks) {
      w.Zig(chunk.seq);
      w.Zig(chunk.chunk);
      w.Zig(chunk.group);
      w.Zig(chunk.q_slot);
      w.Zig(chunk.kv_slot);
    }
    PoolCursor cursor;
    for (const Instruction& instr : dev.instructions) {
      WriteInstructionBin(w, dev, instr, cursor);
    }
    for (const Instruction& instr : dev.backward_instructions) {
      WriteInstructionBin(w, dev, instr, cursor);
    }
    DCP_CHECK(cursor.attn == dev.attn_items.size() &&
              cursor.reduce == dev.reduce_items.size() && cursor.blocks == dev.blocks.size())
        << "pool items no instruction references; the plan has no encoding";
  }
  return w.Take();
}

StatusOr<BatchPlan> DeserializePlanBinary(std::string_view bytes) {
  ByteReader r(bytes);
  for (char expected : kBinaryMagic) {
    if (r.U8() != static_cast<uint8_t>(expected)) {
      return r.Fail("bad magic");
    }
  }
  const uint32_t version = r.U32();
  if (r.failed()) {
    return r.TakeStatus();
  }
  if (version != kPlanBinaryVersion) {
    return r.Fail("unsupported format version " + std::to_string(version));
  }
  BatchPlan plan;
  BatchLayout& layout = plan.layout;
  layout.block_size = r.Zig();
  layout.num_groups = r.Zig32("layout num_groups out of range");
  layout.heads_per_group = r.Zig32("layout heads_per_group out of range");
  layout.head_dim = r.Zig32("layout head_dim out of range");
  layout.bytes_per_element = r.Zig32("layout bytes_per_element out of range");
  const uint32_t num_seqs = r.BoundedCount(1, "sequence count");
  if (r.failed()) {
    return r.TakeStatus();
  }
  layout.seqlens.reserve(num_seqs);
  for (uint32_t s = 0; s < num_seqs; ++s) {
    layout.seqlens.push_back(r.Zig());
  }
  const uint32_t num_chunks = r.BoundedCount(1, "chunk home count");
  if (r.failed()) {
    return r.TakeStatus();
  }
  plan.chunk_home.reserve(num_chunks);
  for (uint32_t c = 0; c < num_chunks; ++c) {
    plan.chunk_home.push_back(r.Zig32("chunk home device out of range"));
  }
  plan.stats.total_comm_bytes = r.Zig();
  plan.stats.inter_node_comm_bytes = r.Zig();
  plan.stats.max_device_comm_bytes = r.Zig();
  plan.stats.total_flops = r.F64();
  plan.stats.max_device_flops = r.F64();
  plan.stats.max_device_owned_bytes = r.Zig();
  plan.stats.min_device_owned_bytes = r.Zig();
  plan.stats.planning_seconds = r.F64();
  plan.stats.partition_cost = r.F64();
  const uint32_t num_devices = r.BoundedCount(kDeviceHeaderBytes, "device count");
  if (r.failed()) {
    return r.TakeStatus();
  }
  plan.devices.reserve(num_devices);
  thread_local PoolScratch pools;
  for (uint32_t d = 0; d < num_devices; ++d) {
    DevicePlan& dev = plan.devices.emplace_back();
    for (int32_t& slots : dev.num_slots) {
      slots = r.Zig32("device slot count out of range");
    }
    const uint32_t num_local = r.BoundedCount(kLocalChunkBytes, "local chunk count");
    const uint32_t num_fw = r.BoundedCount(kInstrHeaderBytes, "fw instruction count");
    const uint32_t num_bw = r.BoundedCount(kInstrHeaderBytes, "bw instruction count");
    if (r.failed()) {
      return r.TakeStatus();
    }
    dev.local_chunks.reserve(num_local);
    for (uint32_t i = 0; i < num_local; ++i) {
      LocalChunk chunk;
      chunk.seq = r.Zig32("local chunk seq out of range");
      chunk.chunk = r.Zig32("local chunk index out of range");
      chunk.group = r.Zig32("local chunk group out of range");
      chunk.q_slot = r.Zig32("local chunk q_slot out of range");
      chunk.kv_slot = r.Zig32("local chunk kv_slot out of range");
      if (r.failed()) {
        return r.TakeStatus();
      }
      dev.local_chunks.push_back(chunk);
    }
    pools.Clear();
    dev.instructions.resize(num_fw);
    for (Instruction& instr : dev.instructions) {
      DCP_RETURN_IF_ERROR(ReadInstructionBin(r, pools, &instr));
    }
    dev.backward_instructions.resize(num_bw);
    for (Instruction& instr : dev.backward_instructions) {
      DCP_RETURN_IF_ERROR(ReadInstructionBin(r, pools, &instr));
    }
    dev.attn_items.assign(pools.attn.begin(), pools.attn.end());
    dev.reduce_items.assign(pools.reduce.begin(), pools.reduce.end());
    dev.blocks.assign(pools.blocks.begin(), pools.blocks.end());
  }
  if (r.failed()) {
    return r.TakeStatus();
  }
  if (!r.AtEnd()) {
    return r.Fail("trailing garbage after plan (" + std::to_string(r.remaining()) +
                  " bytes)");
  }
  return plan;
}

// --- Planning-service wire messages -----------------------------------------------

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
Status ReadMessageVersion(ByteReader& r, const char* what,
                          uint32_t* version_out = nullptr) {
  const uint32_t version = r.U32();
  if (r.failed()) {
    return r.TakeStatus();
  }
  if (version < kMinServiceMessageVersion || version > kServiceMessageVersion) {
    return Status::DataLoss(std::string(what) + ": unsupported message version " +
                            std::to_string(version));
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

Status RejectTrailing(ByteReader& r, const char* what) {
  if (r.failed()) {
    return r.TakeStatus();
  }
  if (!r.AtEnd()) {
    return r.Fail(std::string("trailing garbage after ") + what);
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
    std::string_view bytes, Arena* arena) {
  ByteReader r(bytes);
  uint32_t version = 0;
  DCP_RETURN_IF_ERROR(ReadMessageVersion(r, "plan request", &version));
  PlanServiceRequestView request;
  request.tenant = r.StrView(kMaxTenantNameBytes, "tenant name too long");
  const uint32_t num_seqs = r.BoundedCount(1, "request sequence count");
  if (r.failed()) {
    return r.TakeStatus();
  }
  // The count precedes the elements, so the whole array is one exact-size arena
  // allocation — the "one allocation per plan deserialization" contract.
  int64_t* seqlens = arena->AllocateArray<int64_t>(num_seqs);
  for (uint32_t s = 0; s < num_seqs; ++s) {
    seqlens[s] = r.Zig();
  }
  request.seqlens = std::span<const int64_t>(seqlens, num_seqs);
  DCP_RETURN_IF_ERROR(ReadMaskSpecBin(r, &request.mask_spec));
  request.block_size = r.Zig();
  request.deadline_ms = r.Zig();
  if (!r.failed() && request.deadline_ms < 0) {
    return r.Fail("negative request deadline");
  }
  if (version >= 3) {
    request.trace_id = r.U64();
  }
  DCP_RETURN_IF_ERROR(RejectTrailing(r, "plan request"));
  return request;
}

std::string SerializePlanServiceResponse(const PlanServiceResponse& response) {
  ByteWriter w;
  w.U32(kServiceMessageVersion);
  w.U8(static_cast<uint8_t>(response.code));
  w.Str(response.message);
  w.U8(static_cast<uint8_t>(response.source));
  w.U64(response.signature_lo);
  w.U64(response.signature_hi);
  w.Str(response.record);
  return w.Take();
}

std::string SerializePlanServiceResponseHead(const PlanServiceResponse& response,
                                             size_t record_size) {
  // Everything up to and including the record's length prefix; the record bytes
  // themselves ride as a separate iovec (FrameParts::body), so appending them here
  // yields exactly SerializePlanServiceResponse's output.
  DCP_CHECK(response.record.empty())
      << "record bytes must travel via FrameParts::body, not the head";
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

StatusOr<PlanServiceResponse> DeserializePlanServiceResponse(std::string_view bytes) {
  ByteReader r(bytes);
  DCP_RETURN_IF_ERROR(ReadMessageVersion(r, "plan response"));
  PlanServiceResponse response;
  DCP_RETURN_IF_ERROR(ReadStatusCodeBin(r, &response.code));
  response.message = r.Str(kMaxStatusMessageBytes, "status message too long");
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
  response.record = r.Str(bytes.size(), "plan record exceeds message");
  DCP_RETURN_IF_ERROR(RejectTrailing(r, "plan response"));
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
  ByteReader r(bytes);
  DCP_RETURN_IF_ERROR(ReadMessageVersion(r, "metrics request"));
  PlanServiceMetricsRequest request;
  request.name_prefix = r.Str(kMaxMetricNameBytes, "metric name prefix too long");
  DCP_RETURN_IF_ERROR(RejectTrailing(r, "metrics request"));
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
  ByteReader r(bytes);
  DCP_RETURN_IF_ERROR(ReadMessageVersion(r, "metrics response"));
  PlanServiceMetricsResponse response;
  DCP_RETURN_IF_ERROR(ReadStatusCodeBin(r, &response.code));
  response.message = r.Str(kMaxStatusMessageBytes, "status message too long");
  // The rendered exposition only needs to fit in the frame payload.
  response.text = r.Str(bytes.size(), "metrics text exceeds message");
  DCP_RETURN_IF_ERROR(RejectTrailing(r, "metrics response"));
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
  ByteReader r(bytes);
  DCP_RETURN_IF_ERROR(ReadMessageVersion(r, "sync request"));
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
  DCP_RETURN_IF_ERROR(RejectTrailing(r, "sync request"));
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
  ByteReader r(bytes);
  DCP_RETURN_IF_ERROR(ReadMessageVersion(r, "sync response"));
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
  DCP_RETURN_IF_ERROR(RejectTrailing(r, "sync response"));
  return response;
}

}  // namespace dcp
