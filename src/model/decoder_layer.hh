/**
 * @file
 * The decoder layer: pre-norm attention plus pre-norm SwiGLU FFN with
 * residuals, over a block of hidden rows. Every decode path of the
 * target model runs its layers through it.
 */

#ifndef SPECEE_MODEL_DECODER_LAYER_HH
#define SPECEE_MODEL_DECODER_LAYER_HH

#include "model/config.hh"
#include "model/ffn.hh"
#include "model/kv_store.hh"
#include "model/weights.hh"
#include "tensor/matrix.hh"

namespace specee::model {

/**
 * Llama-style pre-norm decoder layer over a block of m contiguous
 * hidden rows, row t at position pos0 + t. It holds no weights, only
 * the scratch of up to maxRows() rows, so every thread or sequence
 * that runs layers owns one. A layer runs in two phases, and the
 * caller does each row's attention between them:
 *
 *   1. project(): per row the attention RMSNorm, then Q, K and V as
 *      batched GEMVs over the block (WeightStore::gemvBatch reads a
 *      weight row once per four rows), then RoPE of q and k at
 *      pos0 + t. projectKv() stops at K and V: it fills the KV of a
 *      position whose attention and FFN do not run.
 *   2. The caller appends each row's k(t) and v(t) to its KvStore,
 *      then runs attend(t, ...) per row over that row's own n_pos.
 *   3. finish(): Wo, the residual, the FFN RMSNorm, the FFN (gate
 *      and up as batched GEMVs, Ffn::swiglu, down; or the sparse
 *      path per row) and the residual, in place on the rows.
 *
 * TargetModel::runLayer runs one row; finishEarly projects K/V of
 * one row per skipped layer; prefill projects K/V of four prompt
 * tokens at a time; decodeScripted gives each team member its own
 * layer over its contiguous run of tokens. gemvBatch of one row is
 * gemv bit for bit, so a row computes the same bits in any block.
 */
class DecoderLayer
{
  public:
    /** Empty (unsized) scratch; assign a sized layer before use. */
    DecoderLayer() = default;
    /** Scratch for blocks of up to `rows` rows. */
    explicit DecoderLayer(const ModelConfig &cfg, size_t rows = 1);

    size_t maxRows() const { return rows_; }

    /**
     * Projection phase over the rows of x (m rows of hidden floats,
     * row-major, 1 <= m <= maxRows()): q(t), k(t) and v(t) of row t,
     * roped at position pos0 + t.
     */
    void project(const LayerWeights &lw, tensor::CSpan x, int pos0)
    {
        projectRows(lw, x, pos0, true);
    }

    /** project() without Q: only k(t) and v(t) are written. */
    void projectKv(const LayerWeights &lw, tensor::CSpan x, int pos0)
    {
        projectRows(lw, x, pos0, false);
    }

    tensor::CSpan k(size_t t) const { return k_.row(t); }
    tensor::CSpan v(size_t t) const { return v_.row(t); }

    /** Row t's attention output, which finish() projects through Wo. */
    tensor::Span ctx(size_t t) { return ctx_.row(t); }

    /**
     * Row t's attention (model::attend) over positions [0, n_pos) of
     * `layer` in kv, into ctx(t); row t's k/v must be cached there.
     */
    void attend(size_t t, const KvStore &kv, int layer, int n_pos);

    /**
     * Finish phase over the rows of x, the residual stream of the
     * rows last projected, updated in place from their ctx rows.
     *
     * @param sparse_ffn  route the FFN through Ffn::forwardSparse
     * @param active_frac neuron fraction for the sparse FFN
     */
    void finish(const LayerWeights &lw, tensor::Span x,
                bool sparse_ffn = false, float active_frac = 1.0f);

  private:
    /** Rows in x, asserting the block shape. */
    size_t blockRows(tensor::CSpan x) const;
    void projectRows(const LayerWeights &lw, tensor::CSpan x, int pos0,
                     bool with_q);

    int hidden_ = 0;
    int heads_ = 0;
    int headDim_ = 0;
    size_t rows_ = 0;
    tensor::Matrix normed_, q_, k_, v_, ctx_, sub_, gate_, up_;
    tensor::Vec scores_;
    Ffn sparse_;
};

} // namespace specee::model

#endif // SPECEE_MODEL_DECODER_LAYER_HH
