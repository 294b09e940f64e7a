// The one integer byte codec under every wire and disk format: the binary plan
// (runtime/instructions.cc), the service messages (service/messages.cc), PlanStore
// records and bundles (core/plan_store.cc) and service frames (service/frame.cc).
// Little-endian fixed-width words, unsigned LEB128 varints and zigzag-folded signed
// varints, identical on every host. Header-only so the plan decoder's column loops
// inline every read.
#ifndef DCP_COMMON_BYTES_H_
#define DCP_COMMON_BYTES_H_

#include <bit>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/status.h"

namespace dcp {

// Bound on every count and length a format carries: far above any real plan or
// message, low enough that a corrupt count can never drive a pathological allocation
// or parse loop.
inline constexpr uint64_t kMaxWireCount = uint64_t{1} << 26;

constexpr uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

// Unsigned integer of kWidth bytes.
template <size_t kWidth>
using UintOf = std::conditional_t<
    kWidth == 1, uint8_t,
    std::conditional_t<kWidth == 2, uint16_t,
                       std::conditional_t<kWidth == 4, uint32_t, uint64_t>>>;

// Stores the low kWidth bytes of `v` at `out`, little-endian.
template <size_t kWidth>
void StoreLE(unsigned char* out, uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    const auto word = static_cast<UintOf<kWidth>>(v);
    std::memcpy(out, &word, kWidth);
  } else {
    for (size_t i = 0; i < kWidth; ++i) {
      out[i] = static_cast<unsigned char>(v >> (8 * i));
    }
  }
}

// The kWidth-byte little-endian word at `in`.
template <size_t kWidth>
uint64_t LoadLE(const unsigned char* in) {
  if constexpr (std::endian::native == std::endian::little) {
    UintOf<kWidth> word;
    std::memcpy(&word, in, kWidth);
    return word;
  } else {
    uint64_t v = 0;
    for (size_t i = 0; i < kWidth; ++i) {
      v |= uint64_t{in[i]} << (8 * i);
    }
    return v;
  }
}

class ByteWriter {
 public:
  // Appends to `buf`'s bytes.
  explicit ByteWriter(std::string buf = {}) : buf_(std::move(buf)) {}

  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { StoreLE<4>(Extend(4), v); }
  void U64(uint64_t v) { StoreLE<8>(Extend(8), v); }
  // Unsigned LEB128.
  void Var(uint64_t v) {
    while (v >= 0x80) {
      U8(static_cast<uint8_t>(0x80 | (v & 0x7F)));
      v >>= 7;
    }
    U8(static_cast<uint8_t>(v));
  }
  // Zigzag-folded varint for signed values.
  void Zig(int64_t v) { Var(ZigZag(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Count(size_t v) {
    DCP_CHECK_LE(v, kMaxWireCount);
    Var(v);
  }
  // Length-prefixed byte string.
  void Str(std::string_view s) {
    Count(s.size());
    buf_.append(s);
  }
  // Raw bytes with no length prefix (magics, nested payloads).
  void Bytes(std::string_view s) { buf_.append(s); }
  // Room for `n` more bytes without reallocating.
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }
  // Appends `n` bytes for the caller to fill in.
  unsigned char* Extend(size_t n) {
    const size_t at = buf_.size();
    buf_.resize(at + n);
    return reinterpret_cast<unsigned char*>(buf_.data() + at);
  }

  // The bytes written so far.
  std::string_view view() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

// Bounds-checked cursor over encoded bytes. Reads return values directly and latch
// the FIRST failure (with its offset) instead of threading a Status through every field
// read; after a failure every further read returns 0 (and Take returns null), so the
// decoders check `failed()` at section or column granularity. Every error Status is
// DATA_LOSS and starts with the format name given at construction ("plan binary: ").
class ByteReader {
 public:
  ByteReader(std::string_view data, const char* format) : data_(data), format_(format) {}

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
  Status TakeStatus() const {
    return Status::DataLoss(std::string(format_) + ": " + error_);
  }
  Status Fail(const std::string& what) {
    return Status::DataLoss(std::string(format_) + ": " + what + " at offset " +
                            std::to_string(pos_));
  }

  uint8_t U8() {
    if (pos_ >= data_.size()) {
      SetFail("truncated byte");
      return 0;
    }
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint32_t U32() {
    const unsigned char* p = Take(4, "truncated u32");
    return p == nullptr ? 0 : static_cast<uint32_t>(LoadLE<4>(p));
  }
  uint64_t U64() {
    const unsigned char* p = Take(8, "truncated u64");
    return p == nullptr ? 0 : LoadLE<8>(p);
  }
  uint64_t Var() {
    // One-byte varints — most ids, counts and flags in a plan — stay inline.
    if (!failed_ && pos_ < data_.size()) {
      const auto b = static_cast<uint8_t>(data_[pos_]);
      if (b < 0x80) {
        ++pos_;
        return b;
      }
    }
    return VarSlow();
  }
  int64_t Zig() {
    const uint64_t v = Var();
    return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }
  int32_t Zig32(const char* what) {
    const int64_t v = Zig();
    if (v < INT32_MIN || v > INT32_MAX) {
      SetFail(what);
      return 0;
    }
    return static_cast<int32_t>(v);
  }
  double F64() { return std::bit_cast<double>(U64()); }
  // Length-prefixed byte string, bounded both by the caller's limit and the remaining
  // payload before any allocation.
  std::string Str(size_t max_len, const char* what) {
    return std::string(StrView(max_len, what));
  }
  // Like Str, but aliases the input instead of copying — the zero-copy decoders.
  std::string_view StrView(size_t max_len, const char* what) {
    const uint64_t len = Var();
    if (failed_) {
      return {};
    }
    if (len > max_len || len > remaining()) {
      SetFail(what);
      return {};
    }
    return Bytes(static_cast<size_t>(len), what);
  }
  // The next `n` bytes, aliasing the input; empty (failing) when fewer remain.
  std::string_view Bytes(size_t n, const char* what) {
    const unsigned char* p = Take(n, what);
    return p == nullptr ? std::string_view()
                        : std::string_view(reinterpret_cast<const char*>(p), n);
  }
  // The next `n` bytes, or null (failing) when fewer remain.
  const unsigned char* Take(size_t n, const char* what) {
    if (failed_ || n > remaining()) {
      SetFail(what);
      return nullptr;
    }
    const auto* out = reinterpret_cast<const unsigned char*>(data_.data() + pos_);
    pos_ += n;
    return out;
  }
  // Reads a count and proves `count * min_item_bytes` fits in the remaining payload, so
  // a corrupt count can neither drive a huge allocation nor a long parse loop.
  uint32_t BoundedCount(size_t min_item_bytes, const char* what) {
    const uint64_t v = Var();
    if (failed_) {
      return 0;
    }
    if (v > kMaxWireCount || v * min_item_bytes > remaining()) {
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
  // the loop's. A varint whose last byte is zero is rejected: it has a shorter form,
  // and the encoder only writes the shortest, so every accepted byte string
  // re-encodes to itself.
  uint64_t VarSlow() {
    if (!failed_ && remaining() >= 9) {
      const char* p = data_.data() + pos_;
      uint64_t v = 0;
      for (int i = 0; i < 9; ++i) {
        const auto b = static_cast<uint8_t>(p[i]);
        v |= static_cast<uint64_t>(b & 0x7F) << (7 * i);
        if (b < 0x80) {
          if (b == 0) {
            break;  // Overlong: the checked loop below reports it.
          }
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
        if (b == 0 && shift > 0) {
          SetFail("overlong varint");
          return 0;
        }
        return v;
      }
      shift += 7;
    }
  }

  std::string_view data_;
  const char* format_;
  size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace dcp

#endif  // DCP_COMMON_BYTES_H_
