#include "model/attention.hh"

#include <cmath>

#include "tensor/kernels.hh"
#include "util/logging.hh"

namespace specee::model {

Attention::Attention(const ModelConfig &cfg)
    : hidden_(cfg.sim.hidden),
      heads_(cfg.sim.heads),
      headDim_(cfg.sim.headDim()),
      q_(static_cast<size_t>(hidden_)),
      k_(static_cast<size_t>(hidden_)),
      v_(static_cast<size_t>(hidden_)),
      ctx_(static_cast<size_t>(hidden_)),
      scores_(static_cast<size_t>(cfg.context_len))
{
    specee_assert(hidden_ % heads_ == 0, "hidden %% heads != 0");
}

void
Attention::forward(const LayerWeights &lw, int layer, tensor::CSpan x_normed,
                   int pos, KvStore &kv, tensor::Span out)
{
    specee_assert(x_normed.size() == static_cast<size_t>(hidden_) &&
                  out.size() == static_cast<size_t>(hidden_),
                  "attention io size");

    lw.wq->gemv(x_normed, q_);
    lw.wk->gemv(x_normed, k_);
    lw.wv->gemv(x_normed, v_);
    tensor::rope(q_, static_cast<size_t>(heads_),
                 static_cast<size_t>(headDim_), static_cast<size_t>(pos));
    tensor::rope(k_, static_cast<size_t>(heads_),
                 static_cast<size_t>(headDim_), static_cast<size_t>(pos));
    kv.append(layer, k_, v_);

    const int n_pos = kv.length(layer);
    specee_assert(n_pos <= static_cast<int>(scores_.size()),
                  "context overflow: %d", n_pos);
    const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(headDim_));

    std::fill(ctx_.begin(), ctx_.end(), 0.0f);
    for (int h = 0; h < heads_; ++h) {
        const size_t off = static_cast<size_t>(h) *
                           static_cast<size_t>(headDim_);
        tensor::CSpan qh(q_.data() + off, static_cast<size_t>(headDim_));
        for (int p = 0; p < n_pos; ++p) {
            tensor::CSpan kh = kv.key(layer, p).subspan(
                off, static_cast<size_t>(headDim_));
            scores_[static_cast<size_t>(p)] =
                tensor::dot(qh, kh) * inv_sqrt_d;
        }
        tensor::softmax(scores_, static_cast<size_t>(n_pos));
        tensor::Span ch(ctx_.data() + off, static_cast<size_t>(headDim_));
        for (int p = 0; p < n_pos; ++p) {
            tensor::CSpan vh = kv.value(layer, p).subspan(
                off, static_cast<size_t>(headDim_));
            const float w = scores_[static_cast<size_t>(p)];
            for (int d = 0; d < headDim_; ++d)
                ch[static_cast<size_t>(d)] += w * vh[static_cast<size_t>(d)];
        }
    }
    lw.wo->gemv(ctx_, out);
}

} // namespace specee::model
