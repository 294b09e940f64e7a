#include "runtime/attention_kernel.h"

#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"

namespace dcp {
namespace {

// Intersection of the attended kv set for token q with [kv_begin, kv_end), as up to two
// local index ranges relative to kv_begin.
struct LocalRanges {
  int64_t b0 = 0, e0 = 0, b1 = 0, e1 = 0;
};

LocalRanges IntersectRanges(const RangePair& ranges, int64_t kv_begin, int64_t kv_end) {
  LocalRanges out;
  out.b0 = std::max(ranges.begin0, kv_begin) - kv_begin;
  out.e0 = std::min(ranges.end0, kv_end) - kv_begin;
  if (out.e0 < out.b0) {
    out.e0 = out.b0;
  }
  out.b1 = std::max(ranges.begin1, kv_begin) - kv_begin;
  out.e1 = std::min(ranges.end1, kv_end) - kv_begin;
  if (out.e1 < out.b1) {
    out.e1 = out.b1;
  }
  return out;
}

// Each query row's attended kv indices inside the tile, looked up once per tile and shared
// by every head. A full tile attends the whole kv chunk on every row.
std::vector<LocalRanges> TileRowRanges(const SequenceMask& mask, const TileArgs& args) {
  const int64_t q_len = args.q_end - args.q_begin;
  std::vector<LocalRanges> rows(static_cast<size_t>(q_len));
  for (int64_t t = 0; t < q_len; ++t) {
    LocalRanges& lr = rows[static_cast<size_t>(t)];
    if (args.full) {
      lr.e0 = args.kv_end - args.kv_begin;
    } else {
      lr = IntersectRanges(mask.ranges(args.q_begin + t), args.kv_begin, args.kv_end);
    }
  }
  return rows;
}

bool Empty(const LocalRanges& lr) { return lr.e0 == lr.b0 && lr.e1 == lr.b1; }

}  // namespace

void AttentionTileForward(const SequenceMask& mask, const TileArgs& args,
                          std::span<const float> q, std::span<const float> kv,
                          std::span<float> acc) {
  const int h_count = args.heads;
  const int64_t bs = args.block_size;
  const int d = args.head_dim;
  const int64_t q_len = args.q_end - args.q_begin;
  const int64_t kv_len = args.kv_end - args.kv_begin;
  DCP_CHECK(q_len > 0 && kv_len > 0);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const int64_t m_off = static_cast<int64_t>(h_count) * bs * d;
  const int64_t l_off = m_off + static_cast<int64_t>(h_count) * bs;
  const float* k_base = kv.data();
  const float* v_base = kv.data() + bs * d;

  const std::vector<LocalRanges> rows = TileRowRanges(mask, args);
  std::vector<float> scores(static_cast<size_t>(kv_len));
  for (int h = 0; h < h_count; ++h) {
    for (int64_t t = 0; t < q_len; ++t) {
      const LocalRanges& lr = rows[static_cast<size_t>(t)];
      if (Empty(lr)) {
        continue;  // Token fully masked in this tile.
      }
      const float* q_row = q.data() + (static_cast<int64_t>(h) * bs + t) * d;
      // Scores over allowed local kv indices; track tile max.
      float tile_max = -std::numeric_limits<float>::infinity();
      auto score_range = [&](int64_t jb, int64_t je) {
        for (int64_t j = jb; j < je; ++j) {
          const float* k_row = k_base + j * d;
          float dot = 0.0f;
          for (int c = 0; c < d; ++c) {
            dot += q_row[c] * k_row[c];
          }
          const float s = dot * scale;
          scores[static_cast<size_t>(j)] = s;
          tile_max = std::max(tile_max, s);
        }
      };
      score_range(lr.b0, lr.e0);
      score_range(lr.b1, lr.e1);

      float* u_row = acc.data() + (static_cast<int64_t>(h) * bs + t) * d;
      float& m_ref = acc[static_cast<size_t>(m_off + static_cast<int64_t>(h) * bs + t)];
      float& l_ref = acc[static_cast<size_t>(l_off + static_cast<int64_t>(h) * bs + t)];
      const float m_new = std::max(m_ref, tile_max);
      const float rescale =
          std::isinf(m_ref) ? 0.0f : std::exp(m_ref - m_new);
      if (rescale != 1.0f) {
        for (int c = 0; c < d; ++c) {
          u_row[c] *= rescale;
        }
        l_ref *= rescale;
      }
      auto accumulate_range = [&](int64_t jb, int64_t je) {
        for (int64_t j = jb; j < je; ++j) {
          const float p = std::exp(scores[static_cast<size_t>(j)] - m_new);
          l_ref += p;
          const float* v_row = v_base + j * d;
          for (int c = 0; c < d; ++c) {
            u_row[c] += p * v_row[c];
          }
        }
      };
      accumulate_range(lr.b0, lr.e0);
      accumulate_range(lr.b1, lr.e1);
      m_ref = m_new;
    }
  }
}

void MergeSoftmaxAccumulators(std::span<float> dst, std::span<const float> src, int heads,
                              int64_t block_size, int head_dim, int64_t token_count) {
  const int64_t m_off = static_cast<int64_t>(heads) * block_size * head_dim;
  const int64_t l_off = m_off + static_cast<int64_t>(heads) * block_size;
  for (int h = 0; h < heads; ++h) {
    for (int64_t t = 0; t < token_count; ++t) {
      const int64_t stat_idx = static_cast<int64_t>(h) * block_size + t;
      const float m_src = src[static_cast<size_t>(m_off + stat_idx)];
      const float l_src = src[static_cast<size_t>(l_off + stat_idx)];
      if (l_src == 0.0f) {
        continue;  // Empty partial.
      }
      float& m_dst = dst[static_cast<size_t>(m_off + stat_idx)];
      float& l_dst = dst[static_cast<size_t>(l_off + stat_idx)];
      const float m_new = std::max(m_dst, m_src);
      const float scale_dst = std::isinf(m_dst) ? 0.0f : std::exp(m_dst - m_new);
      const float scale_src = std::exp(m_src - m_new);
      float* u_dst = dst.data() + stat_idx * head_dim;
      const float* u_src = src.data() + stat_idx * head_dim;
      for (int c = 0; c < head_dim; ++c) {
        u_dst[c] = u_dst[c] * scale_dst + u_src[c] * scale_src;
      }
      l_dst = l_dst * scale_dst + l_src * scale_src;
      m_dst = m_new;
    }
  }
}

void FinalizeOutput(std::span<const float> acc, std::span<float> out, int heads,
                    int64_t block_size, int head_dim, int64_t token_count) {
  const int64_t l_off = static_cast<int64_t>(heads) * block_size * head_dim +
                        static_cast<int64_t>(heads) * block_size;
  for (int h = 0; h < heads; ++h) {
    for (int64_t t = 0; t < token_count; ++t) {
      const int64_t stat_idx = static_cast<int64_t>(h) * block_size + t;
      const float l = acc[static_cast<size_t>(l_off + stat_idx)];
      const float inv = l > 0.0f ? 1.0f / l : 0.0f;
      const float* u_row = acc.data() + stat_idx * head_dim;
      float* o_row = out.data() + stat_idx * head_dim;
      for (int c = 0; c < head_dim; ++c) {
        o_row[c] = u_row[c] * inv;
      }
    }
  }
}

void ComputeDelta(std::span<const float> dout, std::span<const float> out,
                  std::span<float> delta, int heads, int64_t block_size, int head_dim,
                  int64_t token_count) {
  for (int h = 0; h < heads; ++h) {
    for (int64_t t = 0; t < token_count; ++t) {
      const int64_t row = static_cast<int64_t>(h) * block_size + t;
      const float* do_row = dout.data() + row * head_dim;
      const float* o_row = out.data() + row * head_dim;
      float sum = 0.0f;
      for (int c = 0; c < head_dim; ++c) {
        sum += do_row[c] * o_row[c];
      }
      delta[static_cast<size_t>(row)] = sum;
    }
  }
}

void AttentionTileBackward(const SequenceMask& mask, const TileArgs& args,
                           std::span<const float> q, std::span<const float> kv,
                           std::span<const float> acc_stats, std::span<const float> dout,
                           std::span<const float> delta, std::span<float> dq,
                           std::span<float> dkv) {
  const int h_count = args.heads;
  const int64_t bs = args.block_size;
  const int d = args.head_dim;
  const int64_t q_len = args.q_end - args.q_begin;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const int64_t m_off = static_cast<int64_t>(h_count) * bs * d;
  const int64_t l_off = m_off + static_cast<int64_t>(h_count) * bs;
  const float* k_base = kv.data();
  const float* v_base = kv.data() + bs * d;
  float* dk_base = dkv.data();
  float* dv_base = dkv.data() + bs * d;

  const std::vector<LocalRanges> rows = TileRowRanges(mask, args);
  for (int h = 0; h < h_count; ++h) {
    for (int64_t t = 0; t < q_len; ++t) {
      const LocalRanges& lr = rows[static_cast<size_t>(t)];
      if (Empty(lr)) {
        continue;
      }
      const int64_t stat_idx = static_cast<int64_t>(h) * bs + t;
      const float m_final = acc_stats[static_cast<size_t>(m_off + stat_idx)];
      const float l_final = acc_stats[static_cast<size_t>(l_off + stat_idx)];
      if (l_final <= 0.0f) {
        continue;
      }
      const float inv_l = 1.0f / l_final;
      const float* q_row = q.data() + stat_idx * d;
      const float* do_row = dout.data() + stat_idx * d;
      const float delta_t = delta[static_cast<size_t>(stat_idx)];
      float* dq_row = dq.data() + stat_idx * d;

      auto backward_range = [&](int64_t jb, int64_t je) {
        for (int64_t j = jb; j < je; ++j) {
          const float* k_row = k_base + j * d;
          const float* v_row = v_base + j * d;
          float dot = 0.0f;
          float dp = 0.0f;
          for (int c = 0; c < d; ++c) {
            dot += q_row[c] * k_row[c];
            dp += do_row[c] * v_row[c];
          }
          const float p = std::exp(dot * scale - m_final) * inv_l;
          const float ds = p * (dp - delta_t) * scale;
          float* dk_row = dk_base + j * d;
          float* dv_row = dv_base + j * d;
          for (int c = 0; c < d; ++c) {
            dq_row[c] += ds * k_row[c];
            dk_row[c] += ds * q_row[c];
            dv_row[c] += p * do_row[c];
          }
        }
      };
      backward_range(lr.b0, lr.e0);
      backward_range(lr.b1, lr.e1);
    }
  }
}

}  // namespace dcp
