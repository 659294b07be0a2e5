/**
 * @file
 * Multi-head causal self-attention with RoPE over a KvStore.
 *
 * The q/k/v/o projections run on whatever tensor::WeightStore backend
 * the LayerWeights were built with (fp32, q8 or q4) — this block is
 * backend-agnostic by construction.
 */

#ifndef SPECEE_MODEL_ATTENTION_HH
#define SPECEE_MODEL_ATTENTION_HH

#include "model/config.hh"
#include "model/kv_store.hh"
#include "model/weights.hh"
#include "tensor/matrix.hh"

namespace specee::model {

/**
 * Attention of one token whose k/v are cached: scores of q against
 * positions [0, n_pos) of `layer`, their softmax, and the weighted
 * sum of the values into ctx, head by head. `scores` is scratch of
 * at least n_pos floats. Attention::forward() runs this with n_pos
 * the cached length; a block decode, which caches the whole block's
 * k/v first, passes each token's own n_pos.
 */
void attend(tensor::CSpan q, const KvStore &kv, int layer, int n_pos,
            int heads, int head_dim, tensor::Span ctx, tensor::Span scores);

/**
 * Single-token decode attention. Projects q/k/v from the normalized
 * input, applies rotary embeddings, appends k/v to the cache, and
 * attends over all cached positions (causal by construction).
 */
class Attention
{
  public:
    Attention() = default; ///< empty (unsized) scratch
    explicit Attention(const ModelConfig &cfg);

    /**
     * Attention for one token.
     *
     * @param lw       layer weights
     * @param layer    layer index (selects the KV lane)
     * @param x_normed pre-normalized input hidden state
     * @param pos      absolute position of this token
     * @param kv       KV storage; receives this token's k/v
     * @param out      attention output (wo applied), length hidden
     */
    void forward(const LayerWeights &lw, int layer, tensor::CSpan x_normed,
                 int pos, KvStore &kv, tensor::Span out);

  private:
    int hidden_ = 0;
    int heads_ = 0;
    int headDim_ = 0;
    tensor::Vec q_, k_, v_, ctx_;
    tensor::Vec scores_;
};

} // namespace specee::model

#endif // SPECEE_MODEL_ATTENTION_HH
