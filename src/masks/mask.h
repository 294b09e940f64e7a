// Segment-encoded per-sequence attention masks.
//
// Every supported mask lowers to at most two disjoint half-open kv ranges per query token
// (the paper's executor limitation, §5 "Blockwise Attention"). Along the query axis those
// ranges change shape only at a few rows (the mask's region boundaries), and between them
// each range endpoint is either a constant or q + c. A SequenceMask stores exactly that: a
// sorted list of row segments, each holding up to two ranges with affine endpoints. A
// causal mask of any length is one segment. Building a mask and its pair total are
// O(segments), a point query is a binary search, and pair counting over a tile sums
// arithmetic series over the segments that overlap it, in exact int64 arithmetic.
#ifndef DCP_MASKS_MASK_H_
#define DCP_MASKS_MASK_H_

#include <cstdint>
#include <vector>

#include "masks/mask_spec.h"

namespace dcp {

// Two disjoint, sorted, half-open ranges of kv indices a query token attends to.
// An unused range is encoded as begin == end == 0.
struct RangePair {
  int64_t begin0 = 0;
  int64_t end0 = 0;
  int64_t begin1 = 0;
  int64_t end1 = 0;

  int64_t TotalLength() const { return (end0 - begin0) + (end1 - begin1); }
  bool Contains(int64_t k) const {
    return (k >= begin0 && k < end0) || (k >= begin1 && k < end1);
  }
  // Number of positions in the intersection with [lo, hi).
  int64_t OverlapWith(int64_t lo, int64_t hi) const;

  bool operator==(const RangePair&) const = default;
};

// Builds a normalized RangePair from up to two raw ranges (merges overlaps, drops empties,
// sorts). Raw ranges may be unsorted or overlapping.
RangePair NormalizeRanges(int64_t b0, int64_t e0, int64_t b1, int64_t e1);

// A kv index that depends on the query row q: offset + slope * q, with slope 0 or 1.
struct RowAffine {
  int64_t offset = 0;
  int64_t slope = 0;

  int64_t At(int64_t q) const { return offset + slope * q; }
};

// Query rows [q_begin, q_end) whose normalized ranges share one affine form: for every row
// q in the segment, the mask's RangePair is {begin0.At(q), end0.At(q), begin1.At(q),
// end1.At(q)}.
struct MaskSegment {
  int64_t q_begin = 0;
  int64_t q_end = 0;
  RowAffine begin0, end0, begin1, end1;

  RangePair At(int64_t q) const {
    return {begin0.At(q), end0.At(q), begin1.At(q), end1.At(q)};
  }
};

enum class BlockCoverage {
  kEmpty,    // No (q, k) pair in the tile is attended: block never constructed.
  kPartial,  // Some pairs masked: kernel applies the range mask.
  kFull,     // Dense tile: kernel can skip mask checks.
};

// The mask of one sequence, as sorted, contiguous row segments covering [0, length).
// Immutable once built, so one mask may be read from any number of threads.
class SequenceMask {
 public:
  // Builds the mask for `info` under `spec`. O(segments) time and memory.
  static SequenceMask Build(const MaskSpec& spec, const SequenceInfo& info);

  int64_t length() const { return length_; }
  MaskKind kind() const { return kind_; }
  const std::vector<MaskSegment>& segments() const { return segments_; }

  // The kv ranges query token q attends to. O(log segments).
  RangePair ranges(int64_t q) const;

  // Point query: does token q attend to kv position k?
  bool Attends(int64_t q, int64_t k) const { return ranges(q).Contains(k); }

  // Number of attended (q, k) pairs in the tile [qb, qe) x [kb, ke). O(log segments +
  // segments overlapping [qb, qe)).
  int64_t CountPairs(int64_t qb, int64_t qe, int64_t kb, int64_t ke) const;

  // Classification of the tile plus its pair count in one pass.
  BlockCoverage Classify(int64_t qb, int64_t qe, int64_t kb, int64_t ke,
                         int64_t* pairs_out) const;

  // Total attended pairs over the whole sequence.
  int64_t TotalPairs() const { return total_pairs_; }

  // FLOPs ratio of this mask relative to a causal mask of the same length
  // (the paper's "mask sparsity" metric in Fig. 19; causal == 1.0).
  double SparsityVsCausal() const;

 private:
  SequenceMask(MaskKind kind, int64_t length, std::vector<MaskSegment> segments);

  // The segment holding row q (q_begin <= q < q_end).
  std::vector<MaskSegment>::const_iterator SegmentAt(int64_t q) const;

  MaskKind kind_;
  int64_t length_;
  std::vector<MaskSegment> segments_;
  int64_t total_pairs_;
};

// Convenience: build masks for a whole batch of sequence lengths.
std::vector<SequenceMask> BuildBatchMasks(const MaskSpec& spec,
                                          const std::vector<int64_t>& seqlens);

}  // namespace dcp

#endif  // DCP_MASKS_MASK_H_
