/**
 * @file
 * Deterministic seeded transformer weights over pluggable backends.
 *
 * Weight matrices are generated from the model seed so every run is
 * reproducible without checkpoints on disk, then held as the
 * tensor::WeightStore of the configured backend that makeWeightStore
 * builds: dense fp32, Q8 (row-quantized int8) or Q4 (AWQ-style group
 * quantization). Consumers call the store directly. The
 * projection backend and the embedding/LM-head backend are chosen
 * independently — the AWQ weight format quantizes only the
 * projections and keeps the tied head dense, while the q8 / q4
 * formats (`EngineConfig::weight_format`) compress both.
 */

#ifndef SPECEE_MODEL_WEIGHTS_HH
#define SPECEE_MODEL_WEIGHTS_HH

#include <memory>
#include <vector>

#include "model/config.hh"
#include "tensor/matrix.hh"
#include "tensor/weight_store.hh"

namespace specee::model {

/** Per-layer weights of the simulated transformer. */
struct LayerWeights
{
    using Store = std::unique_ptr<const tensor::WeightStore>;

    Store wq, wk, wv, wo;       ///< attention projections
    Store w_gate, w_up, w_down; ///< SwiGLU FFN
    tensor::Vec rms_attn;       ///< pre-attention RMSNorm weight
    tensor::Vec rms_ffn;        ///< pre-FFN RMSNorm weight
};

/**
 * Full weight set: embedding (rows unit-normalized so logits live on
 * a stable scale), per-layer projections, final norm. The LM head is
 * tied to the embedding.
 */
class Weights
{
  public:
    /**
     * @param cfg           model configuration (sim dims are used)
     * @param proj_backend  backend for the per-layer projections
     * @param head_backend  backend for the tied embedding / LM head
     */
    Weights(const ModelConfig &cfg, tensor::WeightBackend proj_backend,
            tensor::WeightBackend head_backend);

    /** Tied embedding / LM head store (vocab x hidden). */
    const tensor::WeightStore &embedding() const { return *embedding_; }
    const LayerWeights &layer(int l) const { return layers_[static_cast<size_t>(l)]; }
    const tensor::Vec &rmsFinal() const { return rmsFinal_; }
    int nLayers() const { return static_cast<int>(layers_.size()); }

    tensor::WeightBackend projBackend() const { return projBackend_; }
    tensor::WeightBackend headBackend() const { return headBackend_; }

  private:
    tensor::WeightBackend projBackend_;
    tensor::WeightBackend headBackend_;
    LayerWeights::Store embedding_; // vocab x hidden, unit-norm rows
    std::vector<LayerWeights> layers_;
    tensor::Vec rmsFinal_;
};

} // namespace specee::model

#endif // SPECEE_MODEL_WEIGHTS_HH
