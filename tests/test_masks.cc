#include "masks/mask.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

namespace dcp {
namespace {

// Brute-force predicates restating each mask's definition independently of the RangePair
// lowering, used as oracles.
bool CausalAttends(int64_t q, int64_t k) { return k <= q; }

bool LambdaAttends(const MaskSpec& spec, int64_t q, int64_t k) {
  if (k > q) {
    return false;
  }
  return k < spec.sink_tokens || k > q - spec.window_tokens;
}

bool BlockwiseAttends(const MaskSpec& spec, int64_t len, int64_t q, int64_t k) {
  if (k > q) {
    return false;
  }
  const int64_t bt = spec.icl_block_tokens;
  const int64_t num_blocks = (len + bt - 1) / bt;
  const int64_t qb = q / bt;
  if (qb >= num_blocks - spec.test_blocks) {
    return true;
  }
  const int64_t kb = k / bt;
  return kb < spec.sink_blocks || kb > qb - spec.window_blocks;
}

bool SharedQuestionAttends(const SequenceInfo& info, int64_t q, int64_t k) {
  if (k > q) {
    return false;
  }
  const int64_t qlen = info.question_len;
  if (q < qlen) {
    return true;  // Question region: causal, k <= q < qlen.
  }
  if (k < qlen) {
    return true;  // Everyone attends the question.
  }
  // Same answer?
  int64_t pos = qlen;
  for (int64_t alen : info.answer_lens) {
    const int64_t end = pos + alen;
    if (q >= pos && q < end) {
      return k >= pos && k < end;
    }
    pos = end;
  }
  return false;
}

bool OracleAttends(const MaskSpec& spec, const SequenceInfo& info, int64_t q, int64_t k) {
  switch (spec.kind) {
    case MaskKind::kCausal:
      return CausalAttends(q, k);
    case MaskKind::kLambda:
      return LambdaAttends(spec, q, k);
    case MaskKind::kCausalBlockwise:
      return BlockwiseAttends(spec, info.length, q, k);
    case MaskKind::kSharedQuestion:
      return info.answer_lens.empty() ? CausalAttends(q, k)
                                      : SharedQuestionAttends(info, q, k);
  }
  return false;
}

// The per-token lowering SequenceMask replaced: one normalized RangePair per query token.
// ranges(q) must reproduce it row for row, including the 0,0 encoding of unused ranges.
RangePair OracleNormalize(int64_t b0, int64_t e0, int64_t b1, int64_t e1) {
  if (e0 <= b0) {
    b0 = b1;
    e0 = e1;
    b1 = 0;
    e1 = 0;
  }
  if (e1 <= b1) {
    b1 = 0;
    e1 = 0;
  }
  RangePair out;
  if (e0 <= b0) {
    return out;
  }
  if (e1 > b1 && b1 < b0) {
    std::swap(b0, b1);
    std::swap(e0, e1);
  }
  if (e1 > b1 && b1 <= e0) {
    e0 = std::max(e0, e1);
    b1 = 0;
    e1 = 0;
  }
  out.begin0 = b0;
  out.end0 = e0;
  out.begin1 = b1;
  out.end1 = e1;
  return out;
}

std::vector<RangePair> PerTokenLowering(const MaskSpec& spec, const SequenceInfo& info) {
  const int64_t length = info.length;
  std::vector<RangePair> ranges(static_cast<size_t>(length));
  const auto causal = [&](int64_t q) { return OracleNormalize(0, q + 1, 0, 0); };
  for (int64_t q = 0; q < length; ++q) {
    RangePair& r = ranges[static_cast<size_t>(q)];
    switch (spec.kind) {
      case MaskKind::kCausal:
        r = causal(q);
        break;
      case MaskKind::kLambda:
        r = OracleNormalize(0, std::min(spec.sink_tokens, q + 1),
                            std::max<int64_t>(0, q + 1 - spec.window_tokens), q + 1);
        break;
      case MaskKind::kCausalBlockwise: {
        const int64_t bt = spec.icl_block_tokens;
        const int64_t num_blocks = (length + bt - 1) / bt;
        const int64_t block = q / bt;
        if (block >= num_blocks - spec.test_blocks) {
          r = causal(q);
        } else {
          r = OracleNormalize(
              0, std::min(spec.sink_blocks * bt, q + 1),
              std::max<int64_t>(0, (block - spec.window_blocks + 1) * bt), q + 1);
        }
        break;
      }
      case MaskKind::kSharedQuestion:
        r = causal(q);
        break;
    }
  }
  if (spec.kind == MaskKind::kSharedQuestion && !info.answer_lens.empty()) {
    const int64_t qlen = info.question_len;
    int64_t pos = qlen;
    for (int64_t alen : info.answer_lens) {
      for (int64_t q = pos; q < pos + alen; ++q) {
        ranges[static_cast<size_t>(q)] = OracleNormalize(0, qlen, pos, q + 1);
      }
      pos += alen;
    }
  }
  return ranges;
}

// Upper bound on a mask's segment count: causal 1, lambda 3, causal-blockwise one per ICL
// block plus the test region, shared-question the question plus one per answer.
size_t SegmentBound(const MaskSpec& spec, const SequenceInfo& info) {
  switch (spec.kind) {
    case MaskKind::kCausal:
      return 1;
    case MaskKind::kLambda:
      return 3;
    case MaskKind::kCausalBlockwise:
      return static_cast<size_t>((info.length + spec.icl_block_tokens - 1) /
                                 spec.icl_block_tokens) +
             1;
    case MaskKind::kSharedQuestion:
      return 1 + info.answer_lens.size();
  }
  return 0;
}

struct MaskCase {
  std::string name;
  MaskSpec spec;
  int64_t len = 0;
};

void PrintTo(const MaskCase& c, std::ostream* os) { *os << c.name; }

MaskSpec SmallSpec(MaskKind kind) {
  MaskSpec spec = MaskSpec::ForKind(kind);
  spec.sink_tokens = 3;
  spec.window_tokens = 7;
  spec.icl_block_tokens = 5;
  return spec;
}

std::vector<MaskCase> MaskCases() {
  std::vector<MaskCase> cases;
  for (MaskKind kind : AllMaskKinds()) {
    for (int64_t len : {1, 7, 20, 64}) {
      cases.push_back({MaskKindName(kind) + "_len" + std::to_string(len), SmallSpec(kind), len});
    }
  }
  const auto add = [&](const std::string& name, const MaskSpec& spec,
                       std::initializer_list<int64_t> lens) {
    for (int64_t len : lens) {
      cases.push_back({name + "_len" + std::to_string(len), spec, len});
    }
  };
  add("LambdaSinkOverWindow", MaskSpec::Lambda(9, 4), {20, 64});
  add("LambdaSinkEqualsWindow", MaskSpec::Lambda(5, 5), {20});
  add("LambdaWindowOverLength", MaskSpec::Lambda(3, 100), {20, 64});
  add("LambdaSinkOverLength", MaskSpec::Lambda(80, 6), {64});
  add("LambdaNoSink", MaskSpec::Lambda(0, 6), {20, 64});
  add("LambdaWindowOne", MaskSpec::Lambda(2, 1), {20});
  add("BlockwiseNoTestBlock", MaskSpec::CausalBlockwise(5, 2, 1, 0), {20, 64});
  add("BlockwiseTestBlocksOverBlocks", MaskSpec::CausalBlockwise(5, 2, 1, 50), {20, 64});
  add("BlockwiseRaggedBlock", MaskSpec::CausalBlockwise(7, 2, 1, 1), {20, 64});
  add("BlockwiseWindowZero", MaskSpec::CausalBlockwise(5, 0, 1, 1), {20, 64});
  add("BlockwiseWindowOne", MaskSpec::CausalBlockwise(5, 1, 1, 1), {20, 64});
  add("BlockwiseNoSink", MaskSpec::CausalBlockwise(5, 2, 0, 1), {20, 64});
  add("BlockwiseWideSinkAndWindow", MaskSpec::CausalBlockwise(4, 3, 2, 2), {20, 64});
  add("BlockwiseBlockOverLength", MaskSpec::CausalBlockwise(30, 2, 1, 1), {20});
  for (int64_t len = 1; len <= 8; ++len) {
    add("SharedQuestionDegenerate", MaskSpec::SharedQuestion(), {len});
  }
  add("SharedQuestionTwoAnswers", MaskSpec::SharedQuestion(2, 0.3), {20, 64});
  return cases;
}

class MaskOracleTest : public ::testing::TestWithParam<MaskCase> {
 protected:
  void SetUp() override {
    spec_ = GetParam().spec;
    info_ = MakeSequenceInfo(spec_, GetParam().len);
  }

  MaskSpec spec_;
  SequenceInfo info_;
};

TEST_P(MaskOracleTest, PointQueriesMatchBruteForceDefinition) {
  const int64_t len = info_.length;
  const SequenceMask mask = SequenceMask::Build(spec_, info_);
  ASSERT_EQ(mask.length(), len);
  for (int64_t q = 0; q < len; ++q) {
    for (int64_t k = 0; k < len; ++k) {
      ASSERT_EQ(mask.Attends(q, k), OracleAttends(spec_, info_, q, k))
          << GetParam().name << " q=" << q << " k=" << k;
    }
  }
}

TEST_P(MaskOracleTest, RangesMatchPerTokenLowering) {
  const SequenceMask mask = SequenceMask::Build(spec_, info_);
  const std::vector<RangePair> expect = PerTokenLowering(spec_, info_);
  for (int64_t q = 0; q < info_.length; ++q) {
    const RangePair got = mask.ranges(q);
    const RangePair& want = expect[static_cast<size_t>(q)];
    ASSERT_EQ(got, want) << GetParam().name << " q=" << q << ": got [" << got.begin0 << ","
                         << got.end0 << ")+[" << got.begin1 << "," << got.end1
                         << ") want [" << want.begin0 << "," << want.end0 << ")+["
                         << want.begin1 << "," << want.end1 << ")";
  }
}

TEST_P(MaskOracleTest, EveryTileCountMatchesBruteForce) {
  const int64_t len = info_.length;
  const SequenceMask mask = SequenceMask::Build(spec_, info_);
  // prefix[q][k]: attended pairs in [0, q) x [0, k), from the brute-force definition.
  const auto at = [len](int64_t q, int64_t k) { return static_cast<size_t>(q * (len + 1) + k); };
  std::vector<int64_t> prefix(static_cast<size_t>((len + 1) * (len + 1)), 0);
  for (int64_t q = 0; q < len; ++q) {
    for (int64_t k = 0; k < len; ++k) {
      prefix[at(q + 1, k + 1)] = prefix[at(q, k + 1)] + prefix[at(q + 1, k)] -
                                 prefix[at(q, k)] +
                                 (OracleAttends(spec_, info_, q, k) ? 1 : 0);
    }
  }
  for (int64_t qb = 0; qb <= len; ++qb) {
    for (int64_t qe = qb; qe <= len; ++qe) {
      for (int64_t kb = 0; kb <= len; ++kb) {
        for (int64_t ke = kb; ke <= len; ++ke) {
          const int64_t expect =
              prefix[at(qe, ke)] - prefix[at(qb, ke)] - prefix[at(qe, kb)] + prefix[at(qb, kb)];
          int64_t pairs = -1;
          const BlockCoverage coverage = mask.Classify(qb, qe, kb, ke, &pairs);
          ASSERT_EQ(pairs, expect) << GetParam().name << " tile [" << qb << "," << qe
                                   << ")x[" << kb << "," << ke << ")";
          const BlockCoverage want = expect == 0                      ? BlockCoverage::kEmpty
                                     : expect == (qe - qb) * (ke - kb) ? BlockCoverage::kFull
                                                                       : BlockCoverage::kPartial;
          ASSERT_EQ(coverage, want) << GetParam().name << " tile [" << qb << "," << qe
                                    << ")x[" << kb << "," << ke << ")";
        }
      }
    }
  }
  EXPECT_EQ(mask.TotalPairs(), prefix[at(len, len)]);
}

TEST_P(MaskOracleTest, SegmentsTileRowsWithinBound) {
  const SequenceMask mask = SequenceMask::Build(spec_, info_);
  const std::vector<MaskSegment>& segments = mask.segments();
  ASSERT_FALSE(segments.empty());
  EXPECT_LE(segments.size(), SegmentBound(spec_, info_)) << GetParam().name;
  int64_t row = 0;
  for (const MaskSegment& segment : segments) {
    EXPECT_EQ(segment.q_begin, row);
    EXPECT_LT(segment.q_begin, segment.q_end);
    row = segment.q_end;
  }
  EXPECT_EQ(row, info_.length);
}

INSTANTIATE_TEST_SUITE_P(KindsAndLengths, MaskOracleTest, ::testing::ValuesIn(MaskCases()),
                         [](const ::testing::TestParamInfo<MaskCase>& info) {
                           return info.param.name;
                         });

// Paper-sized sequences: the encoding stays a handful of segments, and it still agrees
// row for row with the per-token lowering and tile for tile with a per-row count.
TEST(MaskSegments, FullLengthMasksStaySmallAndExact) {
  const int64_t len = 131072;
  const int64_t block = 2048;
  for (MaskKind kind : AllMaskKinds()) {
    const MaskSpec spec = MaskSpec::ForKind(kind);
    const SequenceInfo info = MakeSequenceInfo(spec, len);
    const SequenceMask mask = SequenceMask::Build(spec, info);
    const size_t segments = mask.segments().size();
    switch (kind) {
      case MaskKind::kCausal:
        EXPECT_LE(segments, 4u);
        break;
      case MaskKind::kLambda:
        EXPECT_LE(segments, 3u);
        break;
      case MaskKind::kCausalBlockwise:
        EXPECT_LE(segments, static_cast<size_t>(len / spec.icl_block_tokens) + 1);
        break;
      case MaskKind::kSharedQuestion:
        EXPECT_LE(segments, static_cast<size_t>(1 + spec.num_answers));
        break;
    }
    const std::vector<RangePair> expect = PerTokenLowering(spec, info);
    int64_t total = 0;
    for (int64_t q = 0; q < len; ++q) {
      ASSERT_EQ(mask.ranges(q), expect[static_cast<size_t>(q)]) << MaskKindName(kind) << q;
      total += expect[static_cast<size_t>(q)].TotalLength();
    }
    EXPECT_EQ(mask.TotalPairs(), total) << MaskKindName(kind);
    for (int64_t qb = 0; qb < len; qb += block) {
      for (int64_t kb = 0; kb <= qb; kb += block) {
        int64_t want = 0;
        for (int64_t q = qb; q < qb + block; ++q) {
          want += expect[static_cast<size_t>(q)].OverlapWith(kb, kb + block);
        }
        ASSERT_EQ(mask.CountPairs(qb, qb + block, kb, kb + block), want)
            << MaskKindName(kind) << " tile " << qb << "," << kb;
      }
    }
  }
}

// A built mask is shared read-only across threads (compiled plans hand it to every
// executor and loader thread); concurrent readers must all see the same answers.
TEST(MaskSegments, ConcurrentReadersAgree) {
  const MaskSpec spec = MaskSpec::CausalBlockwise(64, 2, 1, 1);
  const SequenceMask mask = SequenceMask::Build(spec, MakeSequenceInfo(spec, 4096));
  const SequenceMask reference = SequenceMask::Build(spec, MakeSequenceInfo(spec, 4096));
  const int64_t total = reference.TotalPairs();
  std::vector<int64_t> tile_pairs;
  for (int64_t qb = 0; qb < 4096; qb += 256) {
    tile_pairs.push_back(reference.CountPairs(qb, qb + 256, 0, qb + 256));
  }
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        mismatches[static_cast<size_t>(t)] += mask.TotalPairs() != total;
        for (size_t i = 0; i < tile_pairs.size(); ++i) {
          const int64_t qb = static_cast<int64_t>(i) * 256;
          mismatches[static_cast<size_t>(t)] +=
              mask.CountPairs(qb, qb + 256, 0, qb + 256) != tile_pairs[i];
          mismatches[static_cast<size_t>(t)] += !(mask.ranges(qb) == reference.ranges(qb));
        }
      }
    });
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "reader " << t;
  }
}

TEST(NormalizeRanges, MergesOverlappingAndSortsAndDropsEmpty) {
  RangePair r = NormalizeRanges(5, 9, 0, 3);
  EXPECT_EQ(r.begin0, 0);
  EXPECT_EQ(r.end0, 3);
  EXPECT_EQ(r.begin1, 5);
  EXPECT_EQ(r.end1, 9);

  r = NormalizeRanges(0, 5, 3, 9);  // Overlap: merge.
  EXPECT_EQ(r.begin0, 0);
  EXPECT_EQ(r.end0, 9);
  EXPECT_EQ(r.begin1, r.end1);

  r = NormalizeRanges(4, 4, 2, 6);  // First empty.
  EXPECT_EQ(r.begin0, 2);
  EXPECT_EQ(r.end0, 6);

  r = NormalizeRanges(0, 3, 3, 7);  // Adjacent: merge.
  EXPECT_EQ(r.begin0, 0);
  EXPECT_EQ(r.end0, 7);
}

TEST(NormalizeRanges, MatchesPerTokenNormalization) {
  for (int64_t b0 = -2; b0 <= 6; ++b0) {
    for (int64_t e0 = -2; e0 <= 6; ++e0) {
      for (int64_t b1 = -2; b1 <= 6; ++b1) {
        for (int64_t e1 = -2; e1 <= 6; ++e1) {
          ASSERT_EQ(NormalizeRanges(b0, e0, b1, e1), OracleNormalize(b0, e0, b1, e1))
              << b0 << " " << e0 << " " << b1 << " " << e1;
        }
      }
    }
  }
}

TEST(MaskSparsity, CausalIsOneAndSparseMasksAreBelowOne) {
  const int64_t len = 512;
  const SequenceMask causal =
      SequenceMask::Build(MaskSpec::Causal(), MakeSequenceInfo(MaskSpec::Causal(), len));
  EXPECT_NEAR(causal.SparsityVsCausal(), 1.0, 1e-12);

  MaskSpec lambda = MaskSpec::Lambda(/*sink=*/8, /*window=*/32);
  const SequenceMask lambda_mask =
      SequenceMask::Build(lambda, MakeSequenceInfo(lambda, len));
  EXPECT_LT(lambda_mask.SparsityVsCausal(), 0.35);

  MaskSpec sq = MaskSpec::SharedQuestion();
  const SequenceMask sq_mask = SequenceMask::Build(sq, MakeSequenceInfo(sq, len));
  EXPECT_LT(sq_mask.SparsityVsCausal(), 1.0);
  EXPECT_GT(sq_mask.SparsityVsCausal(), 0.3);
}

TEST(SharedQuestionInfo, SplitsLengthIntoQuestionAndAnswers) {
  MaskSpec spec = MaskSpec::SharedQuestion(4, 0.2);
  SequenceInfo info = MakeSequenceInfo(spec, 1000);
  EXPECT_EQ(info.answer_lens.size(), 4u);
  EXPECT_EQ(info.answer_lens[0], 200);
  EXPECT_EQ(info.question_len, 200);
  // Degenerate tiny sequence still valid.
  info = MakeSequenceInfo(spec, 3);
  int64_t total = info.question_len;
  for (int64_t a : info.answer_lens) {
    total += a;
  }
  EXPECT_EQ(total, 3);
}

TEST(RangePairOverlap, CountsIntersection) {
  RangePair r = NormalizeRanges(2, 5, 8, 11);
  EXPECT_EQ(r.OverlapWith(0, 20), 6);
  EXPECT_EQ(r.OverlapWith(3, 9), 3);   // {3,4} + {8}
  EXPECT_EQ(r.OverlapWith(5, 8), 0);
  EXPECT_EQ(r.TotalLength(), 6);
}

}  // namespace
}  // namespace dcp
