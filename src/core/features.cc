#include "core/features.hh"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.hh"
#include "util/logging.hh"

namespace specee::core {

std::array<float, 3>
adaInferFeatures(tensor::Span full_logits)
{
    specee_assert(full_logits.size() >= 2, "need at least two logits");
    tensor::softmax(full_logits);
    float top1 = 0.0f, top2 = 0.0f;
    for (float p : full_logits) {
        if (p > top1) {
            top2 = top1;
            top1 = p;
        } else if (p > top2) {
            top2 = p;
        }
    }
    double ent = 0.0;
    for (float p : full_logits) {
        if (p > 1e-12f)
            ent -= static_cast<double>(p) * std::log(static_cast<double>(p));
    }
    const double max_ent = std::log(static_cast<double>(full_logits.size()));
    return {top1, top1 - top2, static_cast<float>(ent / max_ent)};
}

FeatureExtractor::FeatureExtractor(int num_spec)
    : numSpec_(num_spec),
      logits_(static_cast<size_t>(num_spec)),
      probs_(static_cast<size_t>(num_spec)),
      lastProbs_(static_cast<size_t>(num_spec)),
      feats_(static_cast<size_t>(3 * num_spec))
{
    specee_assert(num_spec >= 1, "need at least one speculative token");
}

void
FeatureExtractor::beginToken(const std::vector<int> &spec_tokens)
{
    specee_assert(static_cast<int>(spec_tokens.size()) == numSpec_,
                  "expected %d speculative tokens, got %zu", numSpec_,
                  spec_tokens.size());
    specTokens_ = spec_tokens;
    std::fill(lastProbs_.begin(), lastProbs_.end(),
              1.0f / static_cast<float>(numSpec_));
}

tensor::CSpan
FeatureExtractor::extract(const model::LmHead &head, tensor::CSpan hidden)
{
    head.sliced(hidden, specTokens_, logits_);
    return extractFromLogits(logits_);
}

tensor::CSpan
FeatureExtractor::extractFromLogits(tensor::CSpan sliced_logits)
{
    specee_assert(sliced_logits.size() == static_cast<size_t>(numSpec_),
                  "sliced logit size");
    std::copy(sliced_logits.begin(), sliced_logits.end(), probs_.begin());
    tensor::softmax(probs_);
    for (int i = 0; i < numSpec_; ++i) {
        const size_t si = static_cast<size_t>(i);
        feats_[si] = sliced_logits[si];
        feats_[static_cast<size_t>(numSpec_) + si] = probs_[si];
        feats_[static_cast<size_t>(2 * numSpec_) + si] =
            probs_[si] - lastProbs_[si];
    }
    lastProbs_ = probs_;
    return feats_;
}

} // namespace specee::core
