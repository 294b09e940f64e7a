#include "masks/mask.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/types.h"

namespace dcp {

int64_t RangePair::OverlapWith(int64_t lo, int64_t hi) const {
  const int64_t o0 = std::max<int64_t>(0, std::min(end0, hi) - std::max(begin0, lo));
  const int64_t o1 = std::max<int64_t>(0, std::min(end1, hi) - std::max(begin1, lo));
  return o0 + o1;
}

namespace {

constexpr RowAffine kZero{};
constexpr RowAffine kRowEnd{1, 1};  // q + 1: the causal end of row q.

constexpr RowAffine Const(int64_t value) { return {value, 0}; }

// NormalizeRanges over affine endpoints, with every comparison decided at row q. Each
// comparison is between two of the four raw endpoints, so the result holds on every row
// where all of their pairwise orderings are the same as at q.
MaskSegment NormalizeAt(const MaskSegment& raw, int64_t q) {
  RowAffine b0 = raw.begin0;
  RowAffine e0 = raw.end0;
  RowAffine b1 = raw.begin1;
  RowAffine e1 = raw.end1;
  const auto less = [q](const RowAffine& x, const RowAffine& y) { return x.At(q) < y.At(q); };
  // Drop empty ranges.
  if (!less(b0, e0)) {
    b0 = b1;
    e0 = e1;
    b1 = kZero;
    e1 = kZero;
  }
  if (!less(b1, e1)) {
    b1 = kZero;
    e1 = kZero;
  }
  MaskSegment out{raw.q_begin, raw.q_end, kZero, kZero, kZero, kZero};
  if (!less(b0, e0)) {
    return out;  // both empty
  }
  if (less(b1, e1) && less(b1, b0)) {
    std::swap(b0, b1);
    std::swap(e0, e1);
  }
  // Merge if overlapping or adjacent.
  if (less(b1, e1) && !less(e0, b1)) {
    e0 = less(e0, e1) ? e1 : e0;
    b1 = kZero;
    e1 = kZero;
  }
  out.begin0 = b0;
  out.end0 = e0;
  out.begin1 = b1;
  out.end1 = e1;
  return out;
}

// True when `form`'s affine endpoints give the ranges of `rows` on each of its rows
// (two affine functions that agree on an interval's first and last row agree on all of it).
bool Covers(const MaskSegment& form, const MaskSegment& rows) {
  return form.At(rows.q_begin) == rows.At(rows.q_begin) &&
         form.At(rows.q_end - 1) == rows.At(rows.q_end - 1);
}

// Appends `segment`, folding it into the last segment when that one's affine form
// already covers its rows.
void AppendMerged(const MaskSegment& segment, std::vector<MaskSegment>* out) {
  if (!out->empty() && out->back().q_end == segment.q_begin && Covers(out->back(), segment)) {
    out->back().q_end = segment.q_end;
    return;
  }
  out->push_back(segment);
}

// Normalizes the raw (unsorted, possibly overlapping or empty) ranges of `raw` and appends
// the result. The rows are cut wherever two raw endpoints change order — a sloped and a
// constant endpoint cross at most once — so each piece normalizes to one affine form.
void AppendLowered(const MaskSegment& raw, std::vector<MaskSegment>* out) {
  if (raw.q_begin >= raw.q_end) {
    return;
  }
  const RowAffine ends[4] = {raw.begin0, raw.end0, raw.begin1, raw.end1};
  int64_t crossings[12] = {};
  int num_crossings = 0;
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      const int64_t slope = ends[i].slope - ends[j].slope;
      if (slope != 0) {
        // ends[i] - ends[j] is zero at `root`, and of one sign before it and the other
        // from root + 1 on.
        const int64_t root = (ends[j].offset - ends[i].offset) / slope;
        crossings[num_crossings++] = root;
        crossings[num_crossings++] = root + 1;
      }
    }
  }
  for (int64_t a = raw.q_begin; a < raw.q_end;) {
    int64_t b = raw.q_end;
    for (int i = 0; i < num_crossings; ++i) {
      if (crossings[i] > a && crossings[i] < b) {
        b = crossings[i];
      }
    }
    MaskSegment piece = NormalizeAt(raw, a);
    piece.q_begin = a;
    piece.q_end = b;
    AppendMerged(piece, out);
    a = b;
  }
}

// Lowers rows [0, length) piece by piece, cut at `cuts` (those outside (0, length) are
// ignored). raw_at(q) gives a piece's raw ranges as affine forms that hold from row q up
// to the next cut.
template <typename RawAt>
std::vector<MaskSegment> LowerPieces(int64_t length, std::vector<int64_t> cuts,
                                     RawAt raw_at) {
  std::erase_if(cuts, [length](int64_t cut) { return cut <= 0 || cut >= length; });
  cuts.push_back(0);
  cuts.push_back(length);
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<MaskSegment> segments;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    MaskSegment raw = raw_at(cuts[i]);
    raw.q_begin = cuts[i];
    raw.q_end = cuts[i + 1];
    AppendLowered(raw, &segments);
  }
  return segments;
}

std::vector<MaskSegment> LowerCausal(int64_t length) {
  return {MaskSegment{0, length, kZero, kRowEnd, kZero, kZero}};
}

std::vector<MaskSegment> LowerLambda(const MaskSpec& spec, int64_t length) {
  const int64_t sink = spec.sink_tokens;
  const int64_t window = spec.window_tokens;
  return LowerPieces(length, {sink, window}, [&](int64_t q) {
    // Row q attends [0, min(sink, q + 1)) and [max(0, q + 1 - window), q + 1).
    const RowAffine sink_end = q < sink ? kRowEnd : Const(sink);
    const RowAffine win_begin = q < window ? kZero : RowAffine{1 - window, 1};
    return MaskSegment{0, 0, kZero, sink_end, win_begin, kRowEnd};
  });
}

std::vector<MaskSegment> LowerCausalBlockwise(const MaskSpec& spec, int64_t length) {
  const int64_t bt = spec.icl_block_tokens;
  DCP_CHECK_GT(bt, 0);
  const int64_t num_blocks = CeilDiv(length, bt);
  // The final test blocks attend to everything before them (plus themselves, causally).
  const int64_t test_block = std::clamp<int64_t>(num_blocks - spec.test_blocks, 0, num_blocks);
  const int64_t test_begin = test_block * bt;
  const int64_t sink_end_tokens = spec.sink_blocks * bt;
  std::vector<int64_t> cuts = {sink_end_tokens};
  for (int64_t block = 1; block <= test_block; ++block) {
    cuts.push_back(block * bt);
  }
  return LowerPieces(length, std::move(cuts), [&](int64_t q) {
    if (q >= test_begin) {
      return MaskSegment{0, 0, kZero, kRowEnd, kZero, kZero};
    }
    // Row q of ICL block b attends [0, min(sink_blocks * bt, q + 1)) and
    // [max(0, (b - window_blocks + 1) * bt), q + 1).
    const RowAffine sink_end = q < sink_end_tokens ? kRowEnd : Const(sink_end_tokens);
    const int64_t win_begin = std::max<int64_t>(0, (q / bt - spec.window_blocks + 1) * bt);
    return MaskSegment{0, 0, kZero, sink_end, Const(win_begin), kRowEnd};
  });
}

std::vector<MaskSegment> LowerSharedQuestion(const SequenceInfo& info) {
  const int64_t qlen = info.question_len;
  std::vector<MaskSegment> segments;
  // Question region: plain causal.
  AppendLowered(MaskSegment{0, std::min(qlen, info.length), kZero, kRowEnd, kZero, kZero},
                &segments);
  // Each answer: attends the question plus itself causally; not the other answers.
  int64_t pos = qlen;
  for (int64_t alen : info.answer_lens) {
    AppendLowered(MaskSegment{pos, pos + alen, kZero, Const(qlen), Const(pos), kRowEnd},
                  &segments);
    pos += alen;
  }
  DCP_CHECK_EQ(pos, info.length);
  return segments;
}

// Sum of max(0, first + slope * i) over i in [0, n), for slope in {-1, 0, 1}.
int64_t SumPositive(int64_t first, int64_t slope, int64_t n) {
  // Sum of the consecutive integers lo..hi (zero when hi < lo).
  const auto series = [](int64_t lo, int64_t hi) {
    return hi < lo ? 0 : (lo + hi) * (hi - lo + 1) / 2;
  };
  if (slope == 0) {
    return first > 0 ? first * n : 0;
  }
  if (slope < 0) {
    const int64_t positive = std::clamp<int64_t>(first, 0, n);
    return series(first - positive + 1, first);
  }
  const int64_t skipped = std::clamp<int64_t>(1 - first, 0, n);
  return series(first + skipped, first + n - 1);
}

// Sum over rows q in [a, b) of the length of [lo(q), hi(q)) ∩ [kb, ke). The clipped ends
// min(hi, ke) and max(lo, kb) each switch form at most once, where a sloped end crosses
// the tile edge; between those rows the overlap length is affine in q.
int64_t OverlapSum(const RowAffine& lo, const RowAffine& hi, int64_t a, int64_t b,
                   int64_t kb, int64_t ke) {
  // Rows from crossings[0] on have hi >= ke; rows from crossings[1] on have lo >= kb.
  const int64_t crossings[2] = {hi.slope != 0 ? ke - hi.offset : a,
                                lo.slope != 0 ? kb - lo.offset : a};
  int64_t sum = 0;
  for (int64_t x = a; x < b;) {
    int64_t y = b;
    for (const int64_t crossing : crossings) {
      if (crossing > x && crossing < y) {
        y = crossing;
      }
    }
    const RowAffine upper = hi.At(x) < ke ? hi : Const(ke);
    const RowAffine lower = lo.At(x) >= kb ? lo : Const(kb);
    sum += SumPositive(upper.At(x) - lower.At(x), upper.slope - lower.slope, y - x);
    x = y;
  }
  return sum;
}

}  // namespace

RangePair NormalizeRanges(int64_t b0, int64_t e0, int64_t b1, int64_t e1) {
  return NormalizeAt(MaskSegment{0, 1, Const(b0), Const(e0), Const(b1), Const(e1)}, 0).At(0);
}

SequenceMask::SequenceMask(MaskKind kind, int64_t length, std::vector<MaskSegment> segments)
    : kind_(kind), length_(length), segments_(std::move(segments)), total_pairs_(0) {
  // Every mask is causal at heart, so all ranges lie inside [0, length).
  total_pairs_ = CountPairs(0, length_, 0, length_);
}

SequenceMask SequenceMask::Build(const MaskSpec& spec, const SequenceInfo& info) {
  DCP_CHECK_GT(info.length, 0);
  switch (spec.kind) {
    case MaskKind::kCausal:
      return SequenceMask(spec.kind, info.length, LowerCausal(info.length));
    case MaskKind::kLambda:
      return SequenceMask(spec.kind, info.length, LowerLambda(spec, info.length));
    case MaskKind::kCausalBlockwise:
      return SequenceMask(spec.kind, info.length, LowerCausalBlockwise(spec, info.length));
    case MaskKind::kSharedQuestion: {
      if (info.answer_lens.empty()) {
        return SequenceMask(spec.kind, info.length, LowerCausal(info.length));
      }
      return SequenceMask(spec.kind, info.length, LowerSharedQuestion(info));
    }
  }
  return SequenceMask(MaskKind::kCausal, info.length, LowerCausal(info.length));
}

std::vector<MaskSegment>::const_iterator SequenceMask::SegmentAt(int64_t q) const {
  DCP_CHECK(q >= 0 && q < length_) << "row " << q << " outside mask of length " << length_;
  const auto after = std::upper_bound(
      segments_.begin(), segments_.end(), q,
      [](int64_t row, const MaskSegment& segment) { return row < segment.q_begin; });
  return after - 1;
}

RangePair SequenceMask::ranges(int64_t q) const { return SegmentAt(q)->At(q); }

int64_t SequenceMask::CountPairs(int64_t qb, int64_t qe, int64_t kb, int64_t ke) const {
  DCP_CHECK(qb >= 0 && qe <= length() && qb <= qe);
  if (qb == qe) {
    return 0;
  }
  int64_t pairs = 0;
  for (auto it = SegmentAt(qb); it != segments_.end() && it->q_begin < qe; ++it) {
    const int64_t a = std::max(qb, it->q_begin);
    const int64_t b = std::min(qe, it->q_end);
    pairs += OverlapSum(it->begin0, it->end0, a, b, kb, ke) +
             OverlapSum(it->begin1, it->end1, a, b, kb, ke);
  }
  return pairs;
}

BlockCoverage SequenceMask::Classify(int64_t qb, int64_t qe, int64_t kb, int64_t ke,
                                     int64_t* pairs_out) const {
  const int64_t pairs = CountPairs(qb, qe, kb, ke);
  if (pairs_out != nullptr) {
    *pairs_out = pairs;
  }
  if (pairs == 0) {
    return BlockCoverage::kEmpty;
  }
  if (pairs == (qe - qb) * (ke - kb)) {
    return BlockCoverage::kFull;
  }
  return BlockCoverage::kPartial;
}

double SequenceMask::SparsityVsCausal() const {
  const int64_t n = length();
  const double causal_pairs = 0.5 * static_cast<double>(n) * static_cast<double>(n + 1);
  return static_cast<double>(TotalPairs()) / causal_pairs;
}

std::vector<SequenceMask> BuildBatchMasks(const MaskSpec& spec,
                                          const std::vector<int64_t>& seqlens) {
  std::vector<SequenceMask> masks;
  masks.reserve(seqlens.size());
  for (int64_t len : seqlens) {
    masks.push_back(SequenceMask::Build(spec, MakeSequenceInfo(spec, len)));
  }
  return masks;
}

}  // namespace dcp
