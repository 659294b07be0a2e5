/**
 * @file
 * One decoder layer: pre-norm attention + pre-norm FFN with residuals,
 * plus the KV-fill path used after an early exit.
 */

#ifndef SPECEE_MODEL_DECODER_LAYER_HH
#define SPECEE_MODEL_DECODER_LAYER_HH

#include "model/attention.hh"
#include "model/config.hh"
#include "model/ffn.hh"
#include "model/kv_store.hh"
#include "model/weights.hh"

namespace specee::model {

/**
 * Llama-style pre-norm decoder layer. It holds only the scratch one
 * token's layer computes in, not weights: each SequenceState owns
 * one, so sequences decoding on one model never share it.
 */
class DecoderLayer
{
  public:
    /** Empty (unsized) scratch; assign a sized layer before use. */
    DecoderLayer() = default;
    explicit DecoderLayer(const ModelConfig &cfg);

    /**
     * Full layer forward; x is the residual stream and is updated
     * in place. Appends this token's k/v at `layer`.
     *
     * @param sparse_ffn  route the FFN through the sparse path
     * @param active_frac neuron fraction for the sparse FFN
     */
    void forward(const LayerWeights &lw, int layer, tensor::Span x,
                 int pos, KvStore &kv, bool sparse_ffn = false,
                 float active_frac = 1.0f);

    /**
     * KV-fill only: project and append k/v from `x` without running
     * attention or the FFN. Used for the layers skipped by an early
     * exit so later tokens can still attend to this position
     * (AdaInfer-style state propagation; the cost model charges the
     * two projections).
     */
    void fillKv(const LayerWeights &lw, int layer, tensor::CSpan x,
                int pos, KvStore &kv);

  private:
    int hidden_ = 0;
    int heads_ = 0;
    int headDim_ = 0;
    Attention attn_;
    Ffn ffn_;
    tensor::Vec normed_, sub_, k_, v_;
};

} // namespace specee::model

#endif // SPECEE_MODEL_DECODER_LAYER_HH
