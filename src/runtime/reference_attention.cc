#include "runtime/reference_attention.h"

#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace dcp {

SeqTensors SeqTensors::Random(int heads, int groups, int64_t length, int head_dim,
                              Rng& rng) {
  DCP_CHECK_EQ(heads % groups, 0);
  SeqTensors t;
  t.q = Tensor::Random({heads, length, head_dim}, rng, -0.5f, 0.5f);
  t.k = Tensor::Random({groups, length, head_dim}, rng, -0.5f, 0.5f);
  t.v = Tensor::Random({groups, length, head_dim}, rng, -0.5f, 0.5f);
  return t;
}

Tensor ReferenceAttentionForward(const SeqTensors& inputs, const SequenceMask& mask) {
  const int64_t heads = inputs.num_heads();
  const int64_t groups = inputs.num_groups();
  const int64_t length = inputs.length();
  const int64_t d = inputs.head_dim();
  DCP_CHECK_EQ(length, mask.length());
  const int64_t heads_per_group = heads / groups;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));

  Tensor out = Tensor::Zeros({heads, length, d});
  std::vector<float> probs(static_cast<size_t>(length));
  for (int64_t h = 0; h < heads; ++h) {
    const int64_t g = h / heads_per_group;
    for (int64_t t = 0; t < length; ++t) {
      const RangePair ranges = mask.ranges(t);
      const float* q_row = inputs.q.data() + (h * length + t) * d;
      float max_score = -std::numeric_limits<float>::infinity();
      auto for_each_k = [&](auto&& fn) {
        for (int64_t j = ranges.begin0; j < ranges.end0; ++j) {
          fn(j);
        }
        for (int64_t j = ranges.begin1; j < ranges.end1; ++j) {
          fn(j);
        }
      };
      for_each_k([&](int64_t j) {
        const float* k_row = inputs.k.data() + (g * length + j) * d;
        float dot = 0.0f;
        for (int64_t c = 0; c < d; ++c) {
          dot += q_row[c] * k_row[c];
        }
        probs[static_cast<size_t>(j)] = dot * scale;
        max_score = std::max(max_score, dot * scale);
      });
      float denom = 0.0f;
      for_each_k([&](int64_t j) {
        probs[static_cast<size_t>(j)] =
            std::exp(probs[static_cast<size_t>(j)] - max_score);
        denom += probs[static_cast<size_t>(j)];
      });
      if (denom <= 0.0f) {
        continue;
      }
      float* o_row = out.data() + (h * length + t) * d;
      const float inv = 1.0f / denom;
      for_each_k([&](int64_t j) {
        const float p = probs[static_cast<size_t>(j)] * inv;
        const float* v_row = inputs.v.data() + (g * length + j) * d;
        for (int64_t c = 0; c < d; ++c) {
          o_row[c] += p * v_row[c];
        }
      });
    }
  }
  return out;
}

SeqGrads ReferenceAttentionBackward(const SeqTensors& inputs, const SequenceMask& mask,
                                    const Tensor& out, const Tensor& dout) {
  const int64_t heads = inputs.num_heads();
  const int64_t groups = inputs.num_groups();
  const int64_t length = inputs.length();
  const int64_t d = inputs.head_dim();
  const int64_t heads_per_group = heads / groups;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));

  SeqGrads grads;
  grads.dq = Tensor::Zeros({heads, length, d});
  grads.dk = Tensor::Zeros({groups, length, d});
  grads.dv = Tensor::Zeros({groups, length, d});

  std::vector<float> probs(static_cast<size_t>(length));
  for (int64_t h = 0; h < heads; ++h) {
    const int64_t g = h / heads_per_group;
    for (int64_t t = 0; t < length; ++t) {
      const RangePair ranges = mask.ranges(t);
      const float* q_row = inputs.q.data() + (h * length + t) * d;
      const float* do_row = dout.data() + (h * length + t) * d;
      const float* o_row = out.data() + (h * length + t) * d;
      auto for_each_k = [&](auto&& fn) {
        for (int64_t j = ranges.begin0; j < ranges.end0; ++j) {
          fn(j);
        }
        for (int64_t j = ranges.begin1; j < ranges.end1; ++j) {
          fn(j);
        }
      };
      // Recompute softmax probabilities exactly.
      float max_score = -std::numeric_limits<float>::infinity();
      for_each_k([&](int64_t j) {
        const float* k_row = inputs.k.data() + (g * length + j) * d;
        float dot = 0.0f;
        for (int64_t c = 0; c < d; ++c) {
          dot += q_row[c] * k_row[c];
        }
        probs[static_cast<size_t>(j)] = dot * scale;
        max_score = std::max(max_score, dot * scale);
      });
      float denom = 0.0f;
      for_each_k([&](int64_t j) {
        probs[static_cast<size_t>(j)] =
            std::exp(probs[static_cast<size_t>(j)] - max_score);
        denom += probs[static_cast<size_t>(j)];
      });
      if (denom <= 0.0f) {
        continue;
      }
      const float inv = 1.0f / denom;
      float delta = 0.0f;
      for (int64_t c = 0; c < d; ++c) {
        delta += do_row[c] * o_row[c];
      }
      float* dq_row = grads.dq.data() + (h * length + t) * d;
      for_each_k([&](int64_t j) {
        const float p = probs[static_cast<size_t>(j)] * inv;
        const float* k_row = inputs.k.data() + (g * length + j) * d;
        const float* v_row = inputs.v.data() + (g * length + j) * d;
        float dp = 0.0f;
        for (int64_t c = 0; c < d; ++c) {
          dp += do_row[c] * v_row[c];
        }
        const float ds = p * (dp - delta) * scale;
        float* dk_row = grads.dk.data() + (g * length + j) * d;
        float* dv_row = grads.dv.data() + (g * length + j) * d;
        for (int64_t c = 0; c < d; ++c) {
          dq_row[c] += ds * k_row[c];
          dk_row[c] += ds * q_row[c];
          dv_row[c] += p * do_row[c];
        }
      });
    }
  }
  return grads;
}

}  // namespace dcp
