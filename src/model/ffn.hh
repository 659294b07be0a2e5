/**
 * @file
 * SwiGLU feed-forward pieces: the gating the dense FFN applies, and
 * the sparse-activated FFN.
 *
 * The dense FFN runs inside DecoderLayer::finish(): gate and up as
 * batched GEMVs over the layer's rows, swiglu() per row, then down.
 * The sparse path implements the PowerInfer-style activation
 * sparsity baseline: only the top fraction of neurons by gate
 * magnitude contribute, and the hw::CostModel charges only the
 * touched rows. (Functionally we compute all gate scores to select
 * the top set; PowerInfer predicts them — the selected set is what
 * matters for the output and the cost.) It runs row by row over
 * rowDot / addScaledColumn, which dequantize on the fly under q8/q4
 * weights.
 */

#ifndef SPECEE_MODEL_FFN_HH
#define SPECEE_MODEL_FFN_HH

#include <utility>
#include <vector>

#include "model/config.hh"
#include "model/weights.hh"
#include "tensor/matrix.hh"

namespace specee::model {

/**
 * Feed-forward block down( silu(gate(x)) * up(x) ): the sparse forward
 * and its scratch, and the SwiGLU gating.
 */
class Ffn
{
  public:
    Ffn() = default; ///< empty (unsized) scratch
    explicit Ffn(const ModelConfig &cfg);

    /**
     * Sparse forward keeping only ceil(active_frac * ffn) neurons
     * with the largest |silu(gate)| activations.
     */
    void forwardSparse(const LayerWeights &lw, tensor::CSpan x_normed,
                       float active_frac, tensor::Span out);

    /**
     * act[i] = silu(gate[i]) * up[i], the dense FFN's gating; act
     * may alias gate.
     */
    static void swiglu(tensor::CSpan gate, tensor::CSpan up,
                       tensor::Span act);

    /** Neurons used by the most recent sparse forward. */
    int lastActiveNeurons() const { return lastActive_; }

  private:
    int hidden_ = 0;
    int ffnDim_ = 0;
    int lastActive_ = 0;
    tensor::Vec gate_, act_;
    /** Sparse-path scratch: |act| per neuron and the kept neurons. */
    tensor::Vec mags_;
    std::vector<std::pair<int, float>> top_;
};

} // namespace specee::model

#endif // SPECEE_MODEL_FFN_HH
