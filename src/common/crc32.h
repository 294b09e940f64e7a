// CRC-32 (IEEE 802.3: reflected polynomial 0xEDB88320, initial and final inversion),
// the checksum on every persisted plan record and every planning-service frame, so a
// torn write, bit rot or a corrupt frame is rejected before any byte reaches a decoder.
//
// Two kernels compute it, selected once per process from the CPU alone (no build flag,
// no environment variable):
//   - on x86-64 CPUs with PCLMULQDQ and SSE4.1, inputs of 64 bytes and more are folded
//     16 bytes at a time with carry-less multiplies; the last 0-15 bytes and every
//     shorter input go through the portable kernel;
//   - everywhere else the portable slicing-by-8 kernel does all of it.
// Both produce bit-identical values for every input and for every split of it into
// incremental updates, so records on disk, frames on the wire and golden digests do
// not depend on the host that wrote or checks them.
#ifndef DCP_COMMON_CRC32_H_
#define DCP_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dcp {

// Incremental update: pass the previous return value as `crc` to extend a running
// checksum (start from 0).
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

inline uint32_t Crc32(std::string_view data) {
  return Crc32Update(0, data.data(), data.size());
}

namespace internal {

// The portable slicing-by-8 kernel on its own, with Crc32Update's contract. Exposed so
// tests can check it at every length on hosts where Crc32Update takes the
// carry-less-multiply path; callers use Crc32Update.
uint32_t PortableCrc32Update(uint32_t crc, const void* data, size_t size);

}  // namespace internal
}  // namespace dcp

#endif  // DCP_COMMON_CRC32_H_
