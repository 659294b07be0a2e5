/**
 * @file
 * SwiGLU feed-forward network, dense and sparse-activated.
 *
 * The sparse path implements the PowerInfer-style activation
 * sparsity baseline: only the top fraction of neurons by gate
 * magnitude contribute, and the hw::CostModel charges only the
 * touched rows. (Functionally we compute all gate scores to select
 * the top set; PowerInfer predicts them — the selected set is what
 * matters for the output and the cost.)
 *
 * Both paths are WeightStore-backend-agnostic: the dense GEMVs and
 * the sparse rowDot / addScaledColumn accesses dequantize on the fly
 * under q8/q4 weights.
 */

#ifndef SPECEE_MODEL_FFN_HH
#define SPECEE_MODEL_FFN_HH

#include "model/config.hh"
#include "model/weights.hh"
#include "tensor/matrix.hh"

namespace specee::model {

/** Feed-forward block: down( silu(gate(x)) * up(x) ). */
class Ffn
{
  public:
    Ffn() = default; ///< empty (unsized) scratch
    explicit Ffn(const ModelConfig &cfg);

    /** Dense forward. */
    void forward(const LayerWeights &lw, tensor::CSpan x_normed,
                 tensor::Span out);

    /**
     * Sparse forward keeping only ceil(active_frac * ffn) neurons
     * with the largest |silu(gate)| activations.
     */
    void forwardSparse(const LayerWeights &lw, tensor::CSpan x_normed,
                       float active_frac, tensor::Span out);

    /**
     * act[i] = silu(gate[i]) * up[i], the dense forward's gating;
     * act may alias gate.
     */
    static void swiglu(tensor::CSpan gate, tensor::CSpan up,
                       tensor::Span act);

    /** Neurons used by the most recent sparse forward. */
    int lastActiveNeurons() const { return lastActive_; }

  private:
    int hidden_ = 0;
    int ffnDim_ = 0;
    int lastActive_ = 0;
    tensor::Vec gate_, up_, act_;
};

} // namespace specee::model

#endif // SPECEE_MODEL_FFN_HH
