/**
 * @file
 * Abstract KV storage interface.
 *
 * Attention is written against this interface. Every engine stores
 * its KV in the paged (vllm-style) SequenceKv; the contiguous
 * (HuggingFace-style) KvCache is the reference the paged store is
 * tested against.
 */

#ifndef SPECEE_MODEL_KV_STORE_HH
#define SPECEE_MODEL_KV_STORE_HH

#include "tensor/matrix.hh"

namespace specee::model {

/** Interface over per-layer KV storage. */
class KvStore
{
  public:
    virtual ~KvStore() = default;

    /** Append k/v for the next position of `layer`. @return position */
    virtual int append(int layer, tensor::CSpan k, tensor::CSpan v) = 0;

    virtual tensor::CSpan key(int layer, int pos) const = 0;
    virtual tensor::CSpan value(int layer, int pos) const = 0;

    /** Positions cached for `layer`. */
    virtual int length(int layer) const = 0;

    /** Drop all positions >= new_len (speculative rollback). */
    virtual void truncate(int new_len) = 0;

    /** Drop everything. */
    virtual void clear() = 0;
};

} // namespace specee::model

#endif // SPECEE_MODEL_KV_STORE_HH
