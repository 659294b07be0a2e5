/**
 * @file
 * Causal self-attention of one row over a KvStore. The projections
 * around it belong to the decoder layer (model/decoder_layer.hh).
 */

#ifndef SPECEE_MODEL_ATTENTION_HH
#define SPECEE_MODEL_ATTENTION_HH

#include "model/kv_store.hh"
#include "tensor/matrix.hh"

namespace specee::model {

/**
 * Attention of one token whose k/v are cached: scores of q against
 * positions [0, n_pos) of `layer`, their softmax, and the weighted
 * sum of the values into ctx, head by head. `scores` is scratch of
 * at least n_pos floats. DecoderLayer::attend() runs it per row: a
 * one-row decode passes the cached length, and a block decode, which
 * caches the whole block's k/v first, each token's own n_pos.
 */
void attend(tensor::CSpan q, const KvStore &kv, int layer, int n_pos,
            int heads, int head_dim, tensor::Span ctx, tensor::Span scores);

} // namespace specee::model

#endif // SPECEE_MODEL_ATTENTION_HH
