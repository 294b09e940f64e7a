#include "runtime/instructions.h"

#include <algorithm>
#include <bit>
#include <sstream>

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
// Compact byte-oriented encoding, little-endian and identical on any host. The header
// sections use LEB128 varints (signed values zigzag-folded first, so the small
// positive-or-negative ids real plans are full of take one byte); doubles are bit_cast
// to fixed 8-byte words (exact, no decimal round-trip). Layout:
//
//   "DCPB" u32 version (3)
//   layout   block_size, num_groups/heads_per_group/head_dim/bytes_per_element,
//            num_seqs, seqlens[]
//   home     num_chunks, devices[]
//   stats    all nine PlanStats fields
//   devices  count, then per device a header and 35 columns
//
// A device header is num_slots[kNumBufKinds] and its six pool counts: local chunks, fw
// instructions, bw instructions, tiles, reduce items, transfer blocks. Each field of a
// pool then gets one column, in this order:
//
//   instructions (fw then bw)  kind, flags (1 backward, 2 is_send), flops,
//                              comm_bytes, mem_bytes, host_overhead, transfer_id,
//                              peer, tile count, reduce item count, block count
//   local chunks               seq, chunk, group, q_slot, kv_slot
//   tiles                      seq, group, q_chunk, kv_chunk, q_slot, kv_slot, full
//   reduce items               mode, dst/src0/src1 as (kind, slot), token_count
//   transfer blocks            kind, slot, bytes, token_count
//
// A column is frame-of-reference coded: a header {zigzag varint base, u8 width}, then
// one `width`-byte little-endian word per item holding value − base (doubles as their
// bit patterns). The encoder picks base = the column's minimum and the fewest bytes in
// {0, 1, 2, 4, 8} that hold max − min, and never width 0 for a pool's anchor column
// (its first), so every item of a pool costs at least one byte. An empty column is
// {0, 0}. The instruction ranges are not stored: they are the prefix sums of the
// three count columns. Columns are byte-aligned because bit-packed ones, though ~35%
// smaller, decoded no faster than varints; they are per device because whole-plan
// columns were no smaller and no faster.
//
// Only the current version decodes: plans are cached, so a plan in an older version
// is replanned.

namespace {

constexpr int kMaxInstrKind = static_cast<int>(InstrKind::kCommWait);
constexpr int kMaxReduceMode = static_cast<int>(ReduceMode::kComputeDelta);

constexpr char kBinaryMagic[4] = {'D', 'C', 'P', 'B'};
constexpr uint32_t kPlanBinaryVersion = 3;

// Pools of a device, in header order, and columns of a device.
constexpr int kDevicePools = 6;
constexpr int kDeviceColumns = 11 + 5 + 7 + 8 + 4;
// A device is at least its header varints and a two-byte header per column; bounds
// the device count before allocating.
constexpr size_t kMinDeviceBytes = kNumBufKinds + kDevicePools + 2 * kDeviceColumns;

// Bytes of the unsigned LEB128 form of `v`.
constexpr size_t VarBytes(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

// The items one column covers: a pool, or for instructions the forward stream followed
// by the backward one.
template <typename T>
struct Items {
  std::span<T> first;
  std::span<T> second = {};

  size_t size() const { return first.size() + second.size(); }
};

// Whether a column is its pool's anchor (its first), which is never written at width 0.
constexpr bool kAnchor = true;
constexpr bool kField = false;

// Enums are stored as their underlying byte.
template <typename Enum>
int64_t ByteOf(Enum e) {
  return static_cast<uint8_t>(e);
}
template <typename Enum>
Enum EnumOf(int64_t v) {
  return static_cast<Enum>(static_cast<uint8_t>(v));
}

// Fewest bytes in {0, 1, 2, 4, 8} that hold every value in [0, range].
constexpr uint8_t WidthFor(uint64_t range) {
  return range == 0             ? 0
         : range <= 0xFF        ? 1
         : range <= 0xFFFF      ? 2
         : range <= 0xFFFFFFFFu ? 4
                                : 8;
}

// A column's frame of reference: its minimum and the width of its max − min.
struct ColumnHeader {
  int64_t base = 0;
  uint8_t width = 0;
};

template <size_t kWidth, typename T>
void PackColumn(unsigned char* out, Items<const T> items, uint64_t base,
                const auto& get) {
  for (const auto span : {items.first, items.second}) {
    for (const T& item : span) {
      StoreLE<kWidth>(out, static_cast<uint64_t>(get(item)) - base);
      out += kWidth;
    }
  }
}

// Calls `column(items, anchor, get)` for each column of `dev` in format order, where
// `get(item)` is the column's value for one item as an int64.
template <typename Column>
void VisitDeviceColumns(const DevicePlan& dev, Column&& column) {
  using I = const Instruction&;
  const Items<const Instruction> instrs{dev.instructions, dev.backward_instructions};
  column(instrs, kAnchor, [](I in) { return ByteOf(in.kind); });
  column(instrs, kField, [](I in) -> int64_t { return in.backward | (in.is_send << 1); });
  column(instrs, kField, [](I in) { return std::bit_cast<int64_t>(in.flops); });
  column(instrs, kField, [](I in) -> int64_t { return in.comm_bytes; });
  column(instrs, kField, [](I in) -> int64_t { return in.mem_bytes; });
  column(instrs, kField, [](I in) { return std::bit_cast<int64_t>(in.host_overhead); });
  column(instrs, kField, [](I in) -> int64_t { return in.transfer_id; });
  column(instrs, kField, [](I in) -> int64_t { return in.peer; });
  column(instrs, kField, [](I in) -> int64_t { return in.attn_range.size(); });
  column(instrs, kField, [](I in) -> int64_t { return in.reduce_range.size(); });
  column(instrs, kField, [](I in) -> int64_t { return in.block_range.size(); });

  using L = const LocalChunk&;
  const Items<const LocalChunk> local{dev.local_chunks};
  column(local, kAnchor, [](L c) -> int64_t { return c.seq; });
  column(local, kField, [](L c) -> int64_t { return c.chunk; });
  column(local, kField, [](L c) -> int64_t { return c.group; });
  column(local, kField, [](L c) -> int64_t { return c.q_slot; });
  column(local, kField, [](L c) -> int64_t { return c.kv_slot; });

  using A = const AttentionWorkItem&;
  const Items<const AttentionWorkItem> tiles{dev.attn_items};
  column(tiles, kAnchor, [](A t) -> int64_t { return t.seq; });
  column(tiles, kField, [](A t) -> int64_t { return t.group; });
  column(tiles, kField, [](A t) -> int64_t { return t.q_chunk; });
  column(tiles, kField, [](A t) -> int64_t { return t.kv_chunk; });
  column(tiles, kField, [](A t) -> int64_t { return t.q_slot; });
  column(tiles, kField, [](A t) -> int64_t { return t.kv_slot; });
  column(tiles, kField, [](A t) -> int64_t { return t.full; });

  using R = const ReduceItem&;
  const Items<const ReduceItem> reduce{dev.reduce_items};
  column(reduce, kAnchor, [](R e) { return ByteOf(e.mode); });
  column(reduce, kField, [](R e) { return ByteOf(e.dst.kind); });
  column(reduce, kField, [](R e) -> int64_t { return e.dst.slot; });
  column(reduce, kField, [](R e) { return ByteOf(e.src0.kind); });
  column(reduce, kField, [](R e) -> int64_t { return e.src0.slot; });
  column(reduce, kField, [](R e) { return ByteOf(e.src1.kind); });
  column(reduce, kField, [](R e) -> int64_t { return e.src1.slot; });
  column(reduce, kField, [](R e) -> int64_t { return e.token_count; });

  using B = const TransferBlock&;
  const Items<const TransferBlock> blocks{dev.blocks};
  column(blocks, kAnchor, [](B b) { return ByteOf(b.ref.kind); });
  column(blocks, kField, [](B b) -> int64_t { return b.ref.slot; });
  column(blocks, kField, [](B b) -> int64_t { return b.bytes; });
  column(blocks, kField, [](B b) -> int64_t { return b.token_count; });
}

// The encoder's precondition: each pool is tiled in stream order by its instructions'
// ranges, which is what lets the format store counts instead of ranges.
void CheckPoolsCanonical(const DevicePlan& dev) {
  uint32_t attn = 0;
  uint32_t reduce = 0;
  uint32_t blocks = 0;
  const auto next = [](ItemRange range, uint32_t& cursor, const char* pool) {
    DCP_CHECK_EQ(range.begin, cursor)
        << pool << " range is not in canonical stream order; the plan has no encoding";
    cursor = range.end;
  };
  for (const auto* stream : {&dev.instructions, &dev.backward_instructions}) {
    for (const Instruction& instr : *stream) {
      next(instr.attn_range, attn, "attention item");
      next(instr.reduce_range, reduce, "reduce item");
      next(instr.block_range, blocks, "transfer block");
    }
  }
  DCP_CHECK(attn == dev.attn_items.size() && reduce == dev.reduce_items.size() &&
            blocks == dev.blocks.size())
      << "pool items no instruction references; the plan has no encoding";
}

std::array<size_t, kDevicePools> PoolCounts(const DevicePlan& dev) {
  return {dev.local_chunks.size(), dev.instructions.size(),
          dev.backward_instructions.size(), dev.attn_items.size(),
          dev.reduce_items.size(), dev.blocks.size()};
}

// Appends every device of `plan`: one pass picks each column's header and sizes the
// section exactly, so `w` grows once (plus `trailer_bytes`), and a second writes it.
void WriteDevicesBin(ByteWriter& w, const BatchPlan& plan, size_t trailer_bytes) {
  std::vector<ColumnHeader> headers;
  headers.reserve(plan.devices.size() * kDeviceColumns);
  size_t bytes = VarBytes(plan.devices.size());
  for (const DevicePlan& dev : plan.devices) {
    CheckPoolsCanonical(dev);
    for (int32_t slots : dev.num_slots) {
      bytes += VarBytes(ZigZag(slots));
    }
    for (size_t count : PoolCounts(dev)) {
      DCP_CHECK_LE(count, kMaxWireCount);
      bytes += VarBytes(count);
    }
    VisitDeviceColumns(dev, [&](auto items, bool anchor, const auto& get) {
      ColumnHeader header;
      if (items.size() > 0) {
        int64_t lo = INT64_MAX;
        int64_t hi = INT64_MIN;
        for (const auto span : {items.first, items.second}) {
          for (const auto& item : span) {
            lo = std::min(lo, get(item));
            hi = std::max(hi, get(item));
          }
        }
        header.base = lo;
        header.width = std::max<uint8_t>(
            WidthFor(static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo)), anchor);
      }
      headers.push_back(header);
      bytes += VarBytes(ZigZag(header.base)) + 1 + items.size() * header.width;
    });
  }
  w.Reserve(bytes + trailer_bytes);

  w.Var(plan.devices.size());
  const ColumnHeader* header = headers.data();
  for (const DevicePlan& dev : plan.devices) {
    for (int32_t slots : dev.num_slots) {
      w.Zig(slots);
    }
    for (size_t count : PoolCounts(dev)) {
      w.Var(count);
    }
    VisitDeviceColumns(dev, [&](auto items, bool, const auto& get) {
      const ColumnHeader h = *header++;
      w.Zig(h.base);
      w.U8(h.width);
      unsigned char* out = w.Extend(items.size() * h.width);
      const auto base = static_cast<uint64_t>(h.base);
      switch (h.width) {
        case 1:
          return PackColumn<1>(out, items, base, get);
        case 2:
          return PackColumn<2>(out, items, base, get);
        case 4:
          return PackColumn<4>(out, items, base, get);
        case 8:
          return PackColumn<8>(out, items, base, get);
        default:
          return;  // Width 0: every value is the base.
      }
    });
  }
}

// Smallest and largest of a column's deltas.
struct DeltaRange {
  uint64_t min = 0;
  uint64_t max = 0;
};

// Stores base + each of the column's kWidth-byte deltas at `in` with `set(item, value)`
// and returns the smallest and largest delta.
template <size_t kWidth, typename T, typename Set>
DeltaRange UnpackColumn(const unsigned char* in, Items<T> items, uint64_t base,
                        const Set& set) {
  uint64_t min = UINT64_MAX;
  uint64_t max = 0;
  for (const auto span : {items.first, items.second}) {
    for (T& item : span) {
      uint64_t d = 0;
      if constexpr (kWidth > 0) {
        d = LoadLE<kWidth>(in);
        in += kWidth;
      }
      min = std::min(min, d);
      max = std::max(max, d);
      set(item, static_cast<int64_t>(base + d));
    }
  }
  return {min, max};
}

// The values a column's field can hold.
struct ValueRange {
  int64_t lo;
  int64_t hi;
};
constexpr ValueRange kAnyInt64{INT64_MIN, INT64_MAX};  // Also a double's bit pattern.
constexpr ValueRange kAnyInt32{INT32_MIN, INT32_MAX};
constexpr ValueRange kBufKinds{0, kNumBufKinds - 1};

// Reads one column into `items`, storing each value with `set(item, value)`. Every
// check a value needs is made once for the whole column, from its header and its
// smallest and largest delta: the header must be the one the encoder writes (base the
// column's minimum, width the fewest bytes its range needs and at least 1 for an
// anchor), so an accepted column re-encodes to itself, and its values — base through
// base + the largest delta — must lie in `range`. A failure latches on `r` (as `what`
// for a value out of range); the values already stored are then garbage that the
// caller discards with the plan.
template <typename T, typename Set>
void ReadColumn(ByteReader& r, Items<T> items, bool anchor, ValueRange range,
                const char* what, const Set& set) {
  const int64_t base = r.Zig();
  const uint8_t width = r.U8();
  if (r.failed()) {
    return;
  }
  if (items.size() == 0) {
    if (base != 0 || width != 0) {
      r.SetFail("empty column with a non-empty header");
    }
    return;
  }
  if (width > 8 || (width & (width - 1)) != 0) {
    r.SetFail("column width not 0, 1, 2, 4 or 8");
    return;
  }
  // items.size() <= kMaxWireCount, so this cannot overflow.
  const unsigned char* in = r.Take(items.size() * width, "column exceeds payload");
  if (in == nullptr) {
    return;
  }
  const auto ubase = static_cast<uint64_t>(base);
  DeltaRange deltas;
  switch (width) {
    case 0:
      deltas = UnpackColumn<0>(in, items, ubase, set);
      break;
    case 1:
      deltas = UnpackColumn<1>(in, items, ubase, set);
      break;
    case 2:
      deltas = UnpackColumn<2>(in, items, ubase, set);
      break;
    case 4:
      deltas = UnpackColumn<4>(in, items, ubase, set);
      break;
    default:
      deltas = UnpackColumn<8>(in, items, ubase, set);
      break;
  }
  if (deltas.min != 0 || width != std::max<uint8_t>(WidthFor(deltas.max), anchor) ||
      deltas.max > static_cast<uint64_t>(INT64_MAX) - ubase) {
    r.SetFail("column header is not the canonical one");
  } else if (base < range.lo ||
             // The check above keeps base + max within int64; adding unsigned keeps a
             // negative base plus a delta of 2^63 or more from overflowing on the way.
             static_cast<int64_t>(ubase + deltas.max) > range.hi) {
    r.SetFail(what);
  }
}

int32_t Int32(int64_t v) { return static_cast<int32_t>(v); }

// Mirrors VisitDeviceColumns. Counts are bounded by the remaining payload before any
// pool is sized (each pool's anchor column spends at least one byte per item), and
// each pool is sized exactly once and filled in place.
Status ReadDeviceBin(ByteReader& r, DevicePlan& dev) {
  for (int32_t& slots : dev.num_slots) {
    slots = r.Zig32("device slot count out of range");
  }
  std::array<uint64_t, kDevicePools> counts{};
  uint64_t total = 0;
  for (uint64_t& count : counts) {
    count = r.Var();
    if (count > kMaxWireCount) {
      r.SetFail("device pool count out of range");
    }
    total += count;
  }
  if (r.failed()) {
    return r.TakeStatus();
  }
  if (total > r.remaining()) {
    return r.Fail("device pool counts exceed the payload");
  }
  const auto [num_local, num_fw, num_bw, num_tiles, num_reduce, num_blocks] = counts;
  dev.local_chunks.resize(num_local);
  dev.instructions.resize(num_fw);
  dev.backward_instructions.resize(num_bw);
  dev.attn_items.resize(num_tiles);
  dev.reduce_items.resize(num_reduce);
  dev.blocks.resize(num_blocks);

  using I = Instruction&;
  const Items<Instruction> instrs{dev.instructions, dev.backward_instructions};
  ReadColumn(r, instrs, kAnchor, {0, kMaxInstrKind}, "instruction kind out of range",
             [](I in, int64_t v) { in.kind = EnumOf<InstrKind>(v); });
  ReadColumn(r, instrs, kField, {0, 3}, "instruction flags out of range",
             [](I in, int64_t v) {
               in.backward = (v & 1) != 0;
               in.is_send = (v & 2) != 0;
             });
  ReadColumn(r, instrs, kField, kAnyInt64, "instruction flops",
             [](I in, int64_t v) { in.flops = std::bit_cast<double>(v); });
  ReadColumn(r, instrs, kField, kAnyInt64, "instruction comm bytes",
             [](I in, int64_t v) { in.comm_bytes = v; });
  ReadColumn(r, instrs, kField, kAnyInt64, "instruction mem bytes",
             [](I in, int64_t v) { in.mem_bytes = v; });
  ReadColumn(r, instrs, kField, kAnyInt64, "instruction host overhead",
             [](I in, int64_t v) { in.host_overhead = std::bit_cast<double>(v); });
  ReadColumn(r, instrs, kField, kAnyInt32, "transfer id out of range",
             [](I in, int64_t v) { in.transfer_id = Int32(v); });
  ReadColumn(r, instrs, kField, kAnyInt32, "peer device out of range",
             [](I in, int64_t v) { in.peer = Int32(v); });
  // Ranges are rebuilt as running sums of the counts. Each count is at most its pool's
  // size, so a sum cannot overflow, and each must end at its pool's size.
  uint64_t attn_end = 0;
  uint64_t reduce_end = 0;
  uint64_t blocks_end = 0;
  const auto prefix = [](ItemRange& range, uint64_t& end, int64_t v) {
    range.begin = static_cast<uint32_t>(end);
    end += static_cast<uint64_t>(v);
    range.end = static_cast<uint32_t>(end);
  };
  const auto pool = [](uint64_t size) {
    return ValueRange{0, static_cast<int64_t>(size)};
  };
  ReadColumn(r, instrs, kField, pool(num_tiles),
             "instruction tile count exceeds the pool",
             [&](I in, int64_t v) { prefix(in.attn_range, attn_end, v); });
  ReadColumn(r, instrs, kField, pool(num_reduce),
             "instruction reduce item count exceeds the pool",
             [&](I in, int64_t v) { prefix(in.reduce_range, reduce_end, v); });
  ReadColumn(r, instrs, kField, pool(num_blocks),
             "instruction block count exceeds the pool",
             [&](I in, int64_t v) { prefix(in.block_range, blocks_end, v); });
  if (!r.failed() &&
      (attn_end != num_tiles || reduce_end != num_reduce || blocks_end != num_blocks)) {
    return r.Fail("instruction item counts do not add up to the pool counts");
  }

  using L = LocalChunk&;
  const Items<LocalChunk> local{dev.local_chunks};
  ReadColumn(r, local, kAnchor, kAnyInt32, "local chunk seq out of range",
             [](L c, int64_t v) { c.seq = Int32(v); });
  ReadColumn(r, local, kField, kAnyInt32, "local chunk index out of range",
             [](L c, int64_t v) { c.chunk = Int32(v); });
  ReadColumn(r, local, kField, kAnyInt32, "local chunk group out of range",
             [](L c, int64_t v) { c.group = Int32(v); });
  ReadColumn(r, local, kField, kAnyInt32, "local chunk q_slot out of range",
             [](L c, int64_t v) { c.q_slot = Int32(v); });
  ReadColumn(r, local, kField, kAnyInt32, "local chunk kv_slot out of range",
             [](L c, int64_t v) { c.kv_slot = Int32(v); });

  using A = AttentionWorkItem&;
  const Items<AttentionWorkItem> tiles{dev.attn_items};
  ReadColumn(r, tiles, kAnchor, kAnyInt32, "attention seq out of range",
             [](A t, int64_t v) { t.seq = Int32(v); });
  ReadColumn(r, tiles, kField, kAnyInt32, "attention group out of range",
             [](A t, int64_t v) { t.group = Int32(v); });
  ReadColumn(r, tiles, kField, kAnyInt32, "attention q chunk out of range",
             [](A t, int64_t v) { t.q_chunk = Int32(v); });
  ReadColumn(r, tiles, kField, kAnyInt32, "attention kv chunk out of range",
             [](A t, int64_t v) { t.kv_chunk = Int32(v); });
  ReadColumn(r, tiles, kField, kAnyInt32, "attention q slot out of range",
             [](A t, int64_t v) { t.q_slot = Int32(v); });
  ReadColumn(r, tiles, kField, kAnyInt32, "attention kv slot out of range",
             [](A t, int64_t v) { t.kv_slot = Int32(v); });
  ReadColumn(r, tiles, kField, {0, 1}, "attention item full flag out of range",
             [](A t, int64_t v) { t.full = v != 0; });

  using R = ReduceItem&;
  const Items<ReduceItem> reduce{dev.reduce_items};
  ReadColumn(r, reduce, kAnchor, {0, kMaxReduceMode}, "reduce mode out of range",
             [](R e, int64_t v) { e.mode = EnumOf<ReduceMode>(v); });
  ReadColumn(r, reduce, kField, kBufKinds, "block-ref kind out of range",
             [](R e, int64_t v) { e.dst.kind = EnumOf<BufKind>(v); });
  ReadColumn(r, reduce, kField, kAnyInt32, "block-ref slot out of range",
             [](R e, int64_t v) { e.dst.slot = Int32(v); });
  ReadColumn(r, reduce, kField, kBufKinds, "block-ref kind out of range",
             [](R e, int64_t v) { e.src0.kind = EnumOf<BufKind>(v); });
  ReadColumn(r, reduce, kField, kAnyInt32, "block-ref slot out of range",
             [](R e, int64_t v) { e.src0.slot = Int32(v); });
  ReadColumn(r, reduce, kField, kBufKinds, "block-ref kind out of range",
             [](R e, int64_t v) { e.src1.kind = EnumOf<BufKind>(v); });
  ReadColumn(r, reduce, kField, kAnyInt32, "block-ref slot out of range",
             [](R e, int64_t v) { e.src1.slot = Int32(v); });
  ReadColumn(r, reduce, kField, kAnyInt64, "reduce token count",
             [](R e, int64_t v) { e.token_count = v; });

  using B = TransferBlock&;
  const Items<TransferBlock> blocks{dev.blocks};
  ReadColumn(r, blocks, kAnchor, kBufKinds, "block-ref kind out of range",
             [](B b, int64_t v) { b.ref.kind = EnumOf<BufKind>(v); });
  ReadColumn(r, blocks, kField, kAnyInt32, "block-ref slot out of range",
             [](B b, int64_t v) { b.ref.slot = Int32(v); });
  ReadColumn(r, blocks, kField, kAnyInt64, "transfer bytes",
             [](B b, int64_t v) { b.bytes = v; });
  ReadColumn(r, blocks, kField, kAnyInt64, "transfer token count",
             [](B b, int64_t v) { b.token_count = v; });
  return r.failed() ? r.TakeStatus() : Status::Ok();
}

}  // namespace

void AppendPlanBinary(const BatchPlan& plan, ByteWriter& w, size_t trailer_bytes) {
  w.Bytes(std::string_view(kBinaryMagic, sizeof(kBinaryMagic)));
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
  DCP_CHECK_LE(plan.devices.size(), kMaxWireCount);
  WriteDevicesBin(w, plan, trailer_bytes);
}

std::string SerializePlanBinary(const BatchPlan& plan) {
  ByteWriter w;
  AppendPlanBinary(plan, w);
  return w.Take();
}

StatusOr<BatchPlan> DeserializePlanBinary(std::string_view bytes) {
  ByteReader r(bytes, "plan binary");
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
  const uint32_t num_devices = r.BoundedCount(kMinDeviceBytes, "device count");
  if (r.failed()) {
    return r.TakeStatus();
  }
  plan.devices.resize(num_devices);
  for (DevicePlan& dev : plan.devices) {
    DCP_RETURN_IF_ERROR(ReadDeviceBin(r, dev));
  }
  if (!r.AtEnd()) {
    return r.Fail("trailing garbage after plan (" + std::to_string(r.remaining()) +
                  " bytes)");
  }
  return plan;
}

}  // namespace dcp
