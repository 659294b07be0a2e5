/**
 * @file
 * Language-model head: full, sliced (speculative) and grouped
 * (hyper-token) projections from hidden states to token logits.
 *
 * The sliced path is the core of the paper's insight (Fig. 2(b)):
 * instead of the full hidden x vocab GEMV per layer, the predictor
 * only needs the columns of the LM head that correspond to the
 * speculative tokens. The grouped path evaluates one block per token
 * tree path — the CPU analogue of the cutlass/MegaBlocks group-GEMM
 * kernel of Fig. 13.
 */

#ifndef SPECEE_MODEL_LM_HEAD_HH
#define SPECEE_MODEL_LM_HEAD_HH

#include <vector>

#include "tensor/matrix.hh"
#include "tensor/weight_store.hh"

namespace specee::model {

/**
 * LM head tied to the embedding store (vocab x hidden). The store's
 * backend decides whether full/sliced logits run on dense fp32 rows
 * or dequantize-on-the-fly quantized rows. Every method is const and
 * normalizes into its own local buffer, so threads may share one
 * head.
 */
class LmHead
{
  public:
    /**
     * @param embedding  tied embedding store (vocab x hidden)
     * @param rms_final  final RMSNorm weight (hidden)
     */
    LmHead(const tensor::WeightStore &embedding,
           const tensor::Vec &rms_final);

    int vocab() const { return static_cast<int>(embedding_.rows()); }
    int hidden() const { return static_cast<int>(embedding_.cols()); }

    /** Full-vocabulary logits (the expensive online search). */
    void full(tensor::CSpan hidden_state, tensor::Span logits) const;

    /**
     * Full logits of several hidden states: row j of `hiddens`
     * (n x hidden, row-major) into row j of `logits` (n x vocab).
     * The rows go through the embedding's batched GEMV, which reads
     * each embedding row once per four hidden states, and every row
     * equals full() bit for bit.
     */
    void fullRows(tensor::CSpan hiddens, tensor::Span logits) const;

    /** Logits for selected tokens only (speculative LM head). */
    void sliced(tensor::CSpan hidden_state, const std::vector<int> &tokens,
                tensor::Span out) const;

    /**
     * Grouped (block-wise) sliced logits: group g pairs hidden state
     * hiddens[g] with token set groups[g]. Semantically equal to
     * calling sliced() per group; implemented as one fused pass so
     * tests can pin the equivalence (the GPU version is one grouped
     * GEMM launch instead of |groups| kernel launches).
     */
    void grouped(const std::vector<tensor::CSpan> &hiddens,
                 const std::vector<std::vector<int>> &groups,
                 std::vector<tensor::Vec> &out) const;

    /** argmax over the full vocabulary for a hidden state. */
    int argmaxToken(tensor::CSpan hidden_state) const;

    /**
     * Whether `token` is the full-vocabulary argmax: equal to
     * argmaxToken(hidden_state) == token for NaN-free logits, first
     * maximum on ties included. A miss usually stops within a few
     * dozen rows of the head; only a hit reads all of it.
     */
    bool isArgmax(tensor::CSpan hidden_state, int token) const;

    /**
     * isArgmax() of `token` for each row of `hiddens` (n x hidden,
     * row-major). It computes each row's logit of the token, then
     * walks the head in index order: every row still in the running
     * takes that head row's logit, as full() would compute it, and
     * drops out when it would displace the token (a head row below
     * the token on >=, above it on >). The walk stops when no row is
     * left. Rows still running share each head row's read, so the
     * hits of one token's layers read the head about once.
     */
    std::vector<bool> isArgmaxRows(tensor::CSpan hiddens, int token) const;

  private:
    /** The final RMSNorm of a hidden state. */
    tensor::Vec normalize(tensor::CSpan hidden_state) const;

    const tensor::WeightStore &embedding_;
    const tensor::Vec &rmsFinal_;
};

} // namespace specee::model

#endif // SPECEE_MODEL_LM_HEAD_HH
