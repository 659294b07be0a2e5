#include "model/attention.hh"

#include <cmath>

#include "tensor/kernels.hh"
#include "util/logging.hh"

namespace specee::model {

void
attend(tensor::CSpan q, const KvStore &kv, int layer, int n_pos, int heads,
       int head_dim, tensor::Span ctx, tensor::Span scores)
{
    specee_assert(n_pos <= static_cast<int>(scores.size()),
                  "context overflow: %d", n_pos);
    const auto hd = static_cast<size_t>(head_dim);
    const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(head_dim));

    std::fill(ctx.begin(), ctx.end(), 0.0f);
    for (int h = 0; h < heads; ++h) {
        const size_t off = static_cast<size_t>(h) * hd;
        const tensor::CSpan qh = q.subspan(off, hd);
        for (int p = 0; p < n_pos; ++p) {
            tensor::CSpan kh = kv.key(layer, p).subspan(off, hd);
            scores[static_cast<size_t>(p)] = tensor::dot(qh, kh) * inv_sqrt_d;
        }
        tensor::softmax(scores, static_cast<size_t>(n_pos));
        const tensor::Span ch = ctx.subspan(off, hd);
        for (int p = 0; p < n_pos; ++p) {
            tensor::CSpan vh = kv.value(layer, p).subspan(off, hd);
            const float w = scores[static_cast<size_t>(p)];
            for (size_t d = 0; d < hd; ++d)
                ch[d] += w * vh[d];
        }
    }
}

} // namespace specee::model
