/**
 * @file
 * Feature-extraction tests, including the Fig. 6 ambiguity cases
 * that motivate using all three feature families.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/features.hh"
#include "model/target_model.hh"
#include "tensor/kernels.hh"

using namespace specee;
using namespace specee::core;

TEST(Features, DimensionalityIsThreePerToken)
{
    FeatureExtractor fx(4);
    EXPECT_EQ(fx.dim(), 12);
    EXPECT_EQ(fx.numSpec(), 4);
}

TEST(Features, LayoutIsLogitsProbsDeltas)
{
    FeatureExtractor fx(2);
    fx.beginToken({10, 20});
    tensor::Vec logits = {2.0f, 0.0f};
    auto f = fx.extractFromLogits(logits);
    ASSERT_EQ(f.size(), 6u);
    EXPECT_FLOAT_EQ(f[0], 2.0f);
    EXPECT_FLOAT_EQ(f[1], 0.0f);
    const float p0 = std::exp(2.0f) / (std::exp(2.0f) + 1.0f);
    EXPECT_NEAR(f[2], p0, 1e-5f);
    EXPECT_NEAR(f[3], 1.0f - p0, 1e-5f);
    // First extraction: delta vs the uniform prior (0.5 each).
    EXPECT_NEAR(f[4], p0 - 0.5f, 1e-5f);
    EXPECT_NEAR(f[5], (1.0f - p0) - 0.5f, 1e-5f);
}

TEST(Features, DeltaTracksPreviousExtraction)
{
    FeatureExtractor fx(2);
    fx.beginToken({1, 2});
    tensor::Vec l1 = {0.0f, 0.0f};
    fx.extractFromLogits(l1); // probs = {0.5, 0.5}
    tensor::Vec l2 = {3.0f, 0.0f};
    auto f = fx.extractFromLogits(l2);
    const float p0 = std::exp(3.0f) / (std::exp(3.0f) + 1.0f);
    EXPECT_NEAR(f[4], p0 - 0.5f, 1e-5f);
}

TEST(Features, BeginTokenResetsPrior)
{
    FeatureExtractor fx(2);
    fx.beginToken({1, 2});
    tensor::Vec l = {5.0f, 0.0f};
    fx.extractFromLogits(l);
    fx.beginToken({3, 4});
    auto f = fx.extractFromLogits(l);
    const float p0 = std::exp(5.0f) / (std::exp(5.0f) + 1.0f);
    EXPECT_NEAR(f[4], p0 - 0.5f, 1e-5f); // prior back to uniform
}

TEST(Features, Fig6LeftSameVariationDifferentProbabilities)
{
    // Fig. 6(a): variation 0.12 can come from 0.32-0.20 (should NOT
    // exit) or 0.58-0.46 (may exit) — variation alone cannot
    // distinguish, but the local-probability feature does.
    FeatureExtractor fx(3);
    fx.beginToken({1, 2, 3});

    // Build logit vectors that realize the target local probs.
    auto logits_for = [](float p0) {
        // two equal tails share 1-p0
        const float tail = (1.0f - p0) / 2.0f;
        return tensor::Vec{std::log(p0), std::log(tail),
                           std::log(tail)};
    };
    fx.extractFromLogits(logits_for(0.20f));
    auto low = fx.extractFromLogits(logits_for(0.32f));
    const float low_prob = low[3];   // local prob of token 0
    const float low_delta = low[6];  // variation of token 0

    fx.beginToken({1, 2, 3});
    fx.extractFromLogits(logits_for(0.46f));
    auto high = fx.extractFromLogits(logits_for(0.58f));

    EXPECT_NEAR(low_delta, high[6], 0.02f);  // same variation
    EXPECT_GT(high[3], low_prob + 0.2f);     // different local prob
}

TEST(Features, Fig6RightSameProbabilitiesDifferentLogits)
{
    // Fig. 6(b): identical local probabilities can hide different
    // logit magnitudes (0.58 from logits ~3.37 vs ~9.80) — the raw
    // logit feature separates them.
    FeatureExtractor fx(3);
    fx.beginToken({1, 2, 3});
    tensor::Vec small = {3.37f, 2.98f, 2.29f};
    auto span_a = fx.extractFromLogits(small);
    // extract() returns a view of an internal buffer; copy before the
    // next extraction.
    tensor::Vec fa(span_a.begin(), span_a.end());
    fx.beginToken({1, 2, 3});
    tensor::Vec big = {9.80f, 9.41f, 8.72f};
    auto fb = fx.extractFromLogits(big);
    EXPECT_NEAR(fa[3], fb[3], 0.01f);    // same local probabilities
    EXPECT_GT(fb[0] - fa[0], 5.0f);      // logits tell them apart
}

TEST(Features, AdaInferFeaturesAreTopGapEntropy)
{
    tensor::Vec logits = {2.0f, 1.0f, 0.0f, 0.0f};
    auto f = adaInferFeatures(logits);
    // softmax of {2,1,0,0}
    const float z = std::exp(2.0f) + std::exp(1.0f) + 2.0f;
    const float p0 = std::exp(2.0f) / z;
    const float p1 = std::exp(1.0f) / z;
    EXPECT_NEAR(f[0], p0, 1e-4f);
    EXPECT_NEAR(f[1], p0 - p1, 1e-4f);
    EXPECT_GT(f[2], 0.0f);
    EXPECT_LT(f[2], 1.0f);
}

TEST(Features, AdaInferEntropyBounds)
{
    tensor::Vec uniform = {1.0f, 1.0f, 1.0f, 1.0f};
    auto fu = adaInferFeatures(uniform);
    EXPECT_NEAR(fu[2], 1.0f, 1e-4f); // normalized entropy of uniform

    tensor::Vec peaked = {100.0f, 0.0f, 0.0f, 0.0f};
    auto fp = adaInferFeatures(peaked);
    EXPECT_NEAR(fp[2], 0.0f, 1e-3f);
    EXPECT_NEAR(fp[0], 1.0f, 1e-4f);
}

TEST(Features, ExtractMatchesModelSlicedLogits)
{
    auto cfg = model::ModelConfig::tiny();
    const model::TargetModel tm(cfg, {});
    auto seq = tm.makeSequence();
    model::TokenScript s;
    s.target = 40;
    s.distractor = 50;
    s.conv_layer = 3;
    tm.beginToken(seq, 7, s);
    const tensor::CSpan hidden = tm.runLayer(seq);

    FeatureExtractor fx(4);
    std::vector<int> spec = {40, 41, 42, 43};
    fx.beginToken(spec);
    auto f = fx.extract(tm.lmHead(), hidden);
    tensor::Vec direct(4);
    tm.lmHead().sliced(hidden, spec, direct);
    for (int i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(f[static_cast<size_t>(i)],
                        direct[static_cast<size_t>(i)]);
}
