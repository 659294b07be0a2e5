/**
 * @file
 * Deterministic seeded transformer weights over pluggable backends.
 *
 * Weight matrices are generated from the model seed so every run is
 * reproducible without checkpoints on disk, then handed to a
 * tensor::WeightStore of the configured backend: dense fp32, Q8
 * (row-quantized int8) or Q4 (AWQ-style group quantization). The
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

/**
 * One weight matrix behind a tensor::WeightStore, with a uniform
 * gemv / sparse-access interface regardless of backend.
 */
class WeightMat
{
  public:
    WeightMat() = default;

    /** Build from a dense matrix under `backend` (the dense copy is
     *  dropped for compressed backends). */
    WeightMat(tensor::Matrix dense, tensor::WeightBackend backend);

    void gemv(tensor::CSpan x, tensor::Span y) const;
    void gemvRows(const std::vector<int> &rows, tensor::CSpan x,
                  tensor::Span y) const;

    /** Dequantize row r into out (out.size() == cols()). */
    void copyRow(size_t r, tensor::Span out) const;

    /** Single row as a dense vector (dequantized if needed). */
    tensor::Vec denseRow(size_t r) const;

    /** Dot of row r with x (sparse row access, e.g. PowerInfer up-proj). */
    float rowDot(size_t r, tensor::CSpan x) const;

    /** out += scale * column c (sparse down-projection accumulate). */
    void addScaledColumn(size_t c, float scale, tensor::Span out) const;

    size_t rows() const;
    size_t cols() const;

    /** Packed storage footprint in bytes (functional, sim dims). */
    size_t byteSize() const;

    tensor::WeightBackend backend() const;
    bool quantized() const
    {
        return backend() != tensor::WeightBackend::Fp32;
    }

  private:
    /** Backing store; asserts on access to a default-constructed mat. */
    const tensor::WeightStore &store() const;

    std::unique_ptr<const tensor::WeightStore> store_;
};

/** Per-layer weights of the simulated transformer. */
struct LayerWeights
{
    WeightMat wq, wk, wv, wo;       ///< attention projections
    WeightMat w_gate, w_up, w_down; ///< SwiGLU FFN
    tensor::Vec rms_attn;           ///< pre-attention RMSNorm weight
    tensor::Vec rms_ffn;            ///< pre-FFN RMSNorm weight
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

    /** AWQ pair (Q4 projections, dense head) when set; else dense. */
    Weights(const ModelConfig &cfg, bool quantize)
        : Weights(cfg,
                  quantize ? tensor::WeightBackend::Q4
                           : tensor::WeightBackend::Fp32,
                  tensor::WeightBackend::Fp32)
    {
    }

    /** Tied embedding / LM head store (vocab x hidden). */
    const WeightMat &embedding() const { return embedding_; }
    const LayerWeights &layer(int l) const { return layers_[static_cast<size_t>(l)]; }
    const tensor::Vec &rmsFinal() const { return rmsFinal_; }
    int nLayers() const { return static_cast<int>(layers_.size()); }

    tensor::WeightBackend projBackend() const { return projBackend_; }
    tensor::WeightBackend headBackend() const { return headBackend_; }
    /** True when the projections are stored compressed. */
    bool quantized() const
    {
        return projBackend_ != tensor::WeightBackend::Fp32;
    }

  private:
    tensor::WeightBackend projBackend_;
    tensor::WeightBackend headBackend_;
    WeightMat embedding_; // vocab x hidden, unit-norm rows
    std::vector<LayerWeights> layers_;
    tensor::Vec rmsFinal_;
};

} // namespace specee::model

#endif // SPECEE_MODEL_WEIGHTS_HH
