/**
 * @file
 * Exit verification (§4.3.3): an exit is taken only when the global
 * argmax (full LM head at the exit layer) equals the local result,
 * the speculative token with the highest sliced logit. Local
 * probabilities alone use only local information; this check folds
 * the global information back in.
 */

#ifndef SPECEE_CORE_VERIFIER_HH
#define SPECEE_CORE_VERIFIER_HH

#include "model/lm_head.hh"

namespace specee::core {

/** Stateless verification algorithm. */
class Verifier
{
  public:
    /**
     * Fig. 5 algorithm: T' = the local result (speculative token with
     * the highest sliced logit), T = the global result (full-vocab
     * argmax of `hidden` through `head`); exit iff T == T'. The
     * test is LmHead::isArgmax, so a reject usually stops after a
     * few rows of the head; an accepted exit emits T'.
     *
     * @param local_best the local result T' (argmax over spec tokens)
     */
    static bool verify(const model::LmHead &head, tensor::CSpan hidden,
                       int local_best);
};

} // namespace specee::core

#endif // SPECEE_CORE_VERIFIER_HH
