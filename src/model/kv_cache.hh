/**
 * @file
 * Contiguous per-layer KV cache with rollback: the reference store
 * the paged KV (model/paged_kv.hh) is tested against. Engines do not
 * construct it.
 *
 * Stores keys and values for every layer in contiguous matrices (the
 * HuggingFace-style layout). A layer's (max_seq x hidden) storage is
 * allocated on its first append and kept until destruction, so an
 * unwritten cache costs nothing and spans stay valid across appends.
 * truncate() supports speculative-decoding rollback of rejected draft
 * tokens.
 */

#ifndef SPECEE_MODEL_KV_CACHE_HH
#define SPECEE_MODEL_KV_CACHE_HH

#include <vector>

#include "model/kv_store.hh"
#include "tensor/matrix.hh"

namespace specee::model {

/** Contiguous KV cache: one (max_seq x hidden) K and V pair per layer. */
class KvCache : public KvStore
{
  public:
    KvCache(int n_layers, int max_seq, int hidden);

    /** Append k/v for the next position of layer l. @return position */
    int append(int layer, tensor::CSpan k, tensor::CSpan v) override;

    /** Key of `pos` at `layer`. */
    tensor::CSpan key(int layer, int pos) const override;
    /** Value of `pos` at `layer`. */
    tensor::CSpan value(int layer, int pos) const override;

    /** Tokens currently cached for a layer. */
    int length(int layer) const override;

    /** Drop all positions >= new_len (speculative rollback). */
    void truncate(int new_len) override;

    /** Drop everything. */
    void clear() override;

    int maxSeq() const { return maxSeq_; }

  private:
    int nLayers_;
    int maxSeq_;
    int hidden_;
    std::vector<tensor::Matrix> k_;
    std::vector<tensor::Matrix> v_;
    std::vector<int> len_;
};

} // namespace specee::model

#endif // SPECEE_MODEL_KV_CACHE_HH
