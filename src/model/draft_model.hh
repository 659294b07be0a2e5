/**
 * @file
 * DraftModel — the speculative draft language model (DLM).
 *
 * Stands in for the EAGLE draft head: per decode step it proposes
 * the top-k speculative tokens that reduce the predictor search
 * space from the full vocabulary to k (~4) tokens (Fig. 2(b)).
 *
 * Substitution note (no trained EAGLE checkpoint ships with this
 * repo): the only DLM properties SpecEE depends on are (a) how often
 * the true next token is inside the proposed set (the hit rate,
 * calibrated per dataset to EAGLE-level acceptance) and (b) its cost,
 * roughly one decoder layer (§5.1), which hw::CostModel charges.
 * Proposals are therefore drawn from the corpus' continuation
 * distribution with a calibrated chance of containing the scripted
 * target, instead of from trained weights.
 */

#ifndef SPECEE_MODEL_DRAFT_MODEL_HH
#define SPECEE_MODEL_DRAFT_MODEL_HH

#include <vector>

#include "model/config.hh"
#include "oracle/corpus.hh"
#include "util/rng.hh"

namespace specee::model {

/** Speculative draft model proposing top-k next tokens. */
class DraftModel
{
  public:
    /**
     * @param cfg       model configuration (for vocab bounds)
     * @param corpus    language model the distractors are drawn from
     * @param hit_rate  probability the true token is in the top-k set
     */
    DraftModel(const ModelConfig &cfg, const oracle::SyntheticCorpus &corpus,
               double hit_rate);

    double hitRate() const { return hitRate_; }

    /**
     * Cost of one draft forward in target-decoder-layer equivalents
     * (§5.1: one decoder layer, plus ~20% for reusing the resident
     * embedding/LM head). The DLM is deployed in the same weight
     * backend as the target model, so hw pricing and the memory
     * tracker scale these bytes by the backend's compression.
     */
    static double layerEquivalents() { return 1.2; }

    /**
     * Propose k speculative tokens for the position following
     * `prev_token`, whose scripted true next token is `true_target`.
     * Tokens are distinct; the target, when present, lands mostly in
     * the first slot (top-1) as a strong draft model would place it.
     */
    std::vector<int> speculate(int prev_token, int true_target, int k,
                               Rng &rng) const;

  private:
    const oracle::SyntheticCorpus &corpus_;
    double hitRate_;
    int vocab_;
};

} // namespace specee::model

#endif // SPECEE_MODEL_DRAFT_MODEL_HH
