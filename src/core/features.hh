/**
 * @file
 * Speculation-based feature extraction (§4.3.1, Fig. 5(b)).
 *
 * Per layer, the predictor consumes 3 features per speculative token
 * (num_spec = 4 -> 12-dim input):
 *   1. speculative token logits — hidden_state x the LM-head columns
 *      of the speculative tokens (the sliced LM head);
 *   2. local probabilities — softmax over those logits only;
 *   3. probability variation — local probabilities minus the local
 *      probabilities at the previous *extracted* layer.
 *
 * Fig. 6 shows why all three are needed: equal variations can come
 * from different absolute probabilities, and equal probabilities
 * from different logit scales. test_features.cc pins those cases.
 */

#ifndef SPECEE_CORE_FEATURES_HH
#define SPECEE_CORE_FEATURES_HH

#include <array>
#include <vector>

#include "model/lm_head.hh"
#include "tensor/matrix.hh"

namespace specee::core {

/**
 * AdaInfer-style features from full-vocabulary logits: top-1
 * probability, top-1/top-2 gap, and normalized entropy. Requires the
 * full LM head at every layer — the heavy search the paper's
 * speculation insight removes (§3.1). Destroys `full_logits` (it is
 * softmaxed in place).
 */
std::array<float, 3> adaInferFeatures(tensor::Span full_logits);

/** Extracts the 12-dim speculation features layer by layer. */
class FeatureExtractor
{
  public:
    explicit FeatureExtractor(int num_spec);

    /** Feature dimensionality (3 * num_spec). */
    int dim() const { return 3 * numSpec_; }

    int numSpec() const { return numSpec_; }

    /** Start a new token with its speculative token set. */
    void beginToken(const std::vector<int> &spec_tokens);

    /**
     * Extract features from `hidden` through the sliced `head`.
     * The previous-layer probabilities are whatever the last call to
     * extract() produced for this token (a uniform prior before the
     * first call), so skipped layers fold into the variation feature
     * exactly as they do in the scheduled system.
     */
    tensor::CSpan extract(const model::LmHead &head, tensor::CSpan hidden);

    /**
     * Same computation from an externally supplied sliced-logit
     * vector (used by the grouped hyper-token path).
     */
    tensor::CSpan extractFromLogits(tensor::CSpan sliced_logits);

    /** Local probabilities of the latest extraction. */
    tensor::CSpan localProbs() const { return probs_; }

  private:
    int numSpec_;
    std::vector<int> specTokens_;
    tensor::Vec logits_;
    tensor::Vec probs_;
    tensor::Vec lastProbs_;
    tensor::Vec feats_;
};

} // namespace specee::core

#endif // SPECEE_CORE_FEATURES_HH
