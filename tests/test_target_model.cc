/**
 * @file
 * TargetModel tests: the probability-shift phenomenon (§4.2), KV
 * bookkeeping, early-exit state propagation and quantized variants.
 */

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>

#include "model/draft_model.hh"
#include "model/kv_cache.hh"
#include "model/target_model.hh"
#include "oracle/corpus.hh"
#include "tensor/kernels.hh"

using namespace specee;

// The default binding points at the model's own state and the LM head
// references its weights: a copy or move would alias the source.
static_assert(!std::is_copy_constructible_v<model::TargetModel>);
static_assert(!std::is_copy_assignable_v<model::TargetModel>);
static_assert(!std::is_move_constructible_v<model::TargetModel>);
static_assert(!std::is_move_assignable_v<model::TargetModel>);

namespace {

model::ModelConfig
tinyCfg()
{
    return model::ModelConfig::tiny();
}

model::TokenScript
script(int target, int distractor, int conv)
{
    model::TokenScript s;
    s.target = target;
    s.distractor = distractor;
    s.conv_layer = conv;
    return s;
}

std::vector<int>
somePrompt(const model::ModelConfig &cfg, uint64_t seed)
{
    oracle::SyntheticCorpus corpus(cfg.sim.vocab, seed);
    Rng rng(seed);
    return corpus.sampleSequence(8, rng);
}

} // namespace

TEST(TargetModel, FinalArgmaxIsAlwaysScriptTarget)
{
    auto cfg = tinyCfg();
    model::TargetModel tm(cfg, {});
    tm.prefill(somePrompt(cfg, 1));
    Rng rng(3);
    int input = 5;
    for (int t = 0; t < 24; ++t) {
        const int target = rng.uniformInt(10, cfg.sim.vocab - 1);
        int distract = rng.uniformInt(10, cfg.sim.vocab - 1);
        if (distract == target)
            distract = (distract + 1) % cfg.sim.vocab;
        const int conv = rng.uniformInt(1, cfg.n_layers - 1);
        tm.beginToken(input, script(target, distract, conv));
        const int out = tm.runRemainingLayers();
        EXPECT_EQ(out, target) << "token " << t << " conv " << conv;
        input = out;
    }
}

TEST(TargetModel, ProbabilityShiftAtConvergenceLayer)
{
    auto cfg = tinyCfg();
    model::TargetModel tm(cfg, {});
    tm.prefill(somePrompt(cfg, 2));

    const int target = 100, distract = 200, conv = 4;
    tm.beginToken(7, script(target, distract, conv));

    std::vector<float> target_prob_per_layer;
    const std::vector<int> spec = {target, 150, 250, 300};
    tensor::Vec sliced(spec.size());
    for (int l = 0; l < cfg.n_layers; ++l) {
        tm.runLayer();
        tm.logitsSliced(spec, sliced);
        tensor::Vec probs(sliced.begin(), sliced.end());
        tensor::softmax(probs);
        target_prob_per_layer.push_back(probs[0]);
    }
    // Before convergence the target's local probability is low and
    // flat; at/after convergence it jumps sharply (Fig. 5a).
    for (int l = 0; l < conv - 1; ++l)
        EXPECT_LT(target_prob_per_layer[l], 0.55) << "layer " << l;
    for (int l = conv + 1; l < cfg.n_layers; ++l)
        EXPECT_GT(target_prob_per_layer[l], 0.80) << "layer " << l;
    // The shift itself: a large delta around the convergence layer.
    const float before = target_prob_per_layer[conv - 1];
    const float after = target_prob_per_layer[conv + 1];
    EXPECT_GT(after - before, 0.35);
}

TEST(TargetModel, PreConvergenceArgmaxIsDistractor)
{
    auto cfg = tinyCfg();
    model::TargetModel tm(cfg, {});
    tm.prefill(somePrompt(cfg, 3));

    const int target = 101, distract = 201, conv = 6;
    tm.beginToken(9, script(target, distract, conv));
    int distractor_hits = 0;
    for (int l = 0; l < conv - 1; ++l) {
        tm.runLayer();
        if (l >= 2 && tm.globalArgmax() == distract)
            ++distractor_hits;
    }
    // After the distractor ramp-in, the global argmax should usually
    // be the distractor before convergence.
    EXPECT_GE(distractor_hits, 2);
    // And after convergence it must be the target.
    while (tm.currentLayer() < conv + 2)
        tm.runLayer();
    EXPECT_EQ(tm.globalArgmax(), target);
}

TEST(TargetModel, EarlyExitFillsKvForSkippedLayers)
{
    auto cfg = tinyCfg();
    model::TargetModel tm(cfg, {});
    auto prompt = somePrompt(cfg, 4);
    tm.prefill(prompt);
    const int base = static_cast<int>(prompt.size());
    EXPECT_EQ(tm.position(), base);

    tm.beginToken(3, script(50, 60, 2));
    tm.runLayer();
    tm.runLayer();
    tm.runLayer(); // exit after layer 2
    const int filled = tm.finishEarly();
    EXPECT_EQ(filled, cfg.n_layers - 3);
    EXPECT_EQ(tm.position(), base + 1);
    // Every layer must now hold KV for the new position.
    for (int l = 0; l < cfg.n_layers; ++l)
        EXPECT_EQ(tm.kv().length(l), base + 1) << "layer " << l;
}

TEST(TargetModel, DeterministicAcrossInstances)
{
    auto cfg = tinyCfg();
    model::TargetModel a(cfg, {});
    model::TargetModel b(cfg, {});
    auto prompt = somePrompt(cfg, 5);
    a.prefill(prompt);
    b.prefill(prompt);
    a.beginToken(11, script(70, 80, 3));
    b.beginToken(11, script(70, 80, 3));
    for (int l = 0; l < cfg.n_layers; ++l) {
        auto ha = a.runLayer();
        auto hb = b.runLayer();
        for (size_t i = 0; i < ha.size(); ++i)
            ASSERT_FLOAT_EQ(ha[i], hb[i]);
    }
}

TEST(TargetModel, QuantizedModelStillEmitsTarget)
{
    auto cfg = tinyCfg();
    // AWQ pair: Q4 projections, dense tied head.
    model::TargetModel tm(
        cfg, {},
        std::make_shared<const model::Weights>(
            cfg, tensor::WeightBackend::Q4, tensor::WeightBackend::Fp32));
    tm.prefill(somePrompt(cfg, 6));
    Rng rng(17);
    int input = 2;
    for (int t = 0; t < 12; ++t) {
        const int target = rng.uniformInt(10, cfg.sim.vocab - 1);
        const int conv = rng.uniformInt(1, cfg.n_layers - 1);
        tm.beginToken(input, script(target, (target + 7) % cfg.sim.vocab,
                                    conv));
        EXPECT_EQ(tm.runRemainingLayers(), target);
        input = target;
    }
}

TEST(TargetModel, PagedKvVariantMatchesContiguous)
{
    // The default sequence is paged; `b` runs on the contiguous
    // reference store bound through makeSequence().
    auto cfg = tinyCfg();
    model::TargetModel a(cfg, {});
    model::TargetModel b(cfg, {});
    model::SequenceState contiguous = b.makeSequence(
        std::make_unique<model::KvCache>(cfg.n_layers, cfg.context_len,
                                         cfg.sim.hidden));
    b.bindSequence(&contiguous);
    auto prompt = somePrompt(cfg, 7);
    a.prefill(prompt);
    b.prefill(prompt);
    a.beginToken(4, script(90, 91, 5));
    b.beginToken(4, script(90, 91, 5));
    for (int l = 0; l < cfg.n_layers; ++l) {
        auto ha = a.runLayer();
        auto hb = b.runLayer();
        for (size_t i = 0; i < ha.size(); ++i)
            ASSERT_NEAR(ha[i], hb[i], 1e-6f);
    }
}

TEST(TargetModel, SparseFfnChangesTextureButNotTarget)
{
    auto cfg = tinyCfg();
    model::TargetModelOptions opts;
    opts.sparse_ffn = true;
    opts.ffn_active_frac = 0.3f;
    model::TargetModel tm(cfg, opts);
    tm.prefill(somePrompt(cfg, 8));
    tm.beginToken(6, script(120, 121, 3));
    EXPECT_EQ(tm.runRemainingLayers(), 120);
}

TEST(TargetModel, ResetClearsState)
{
    auto cfg = tinyCfg();
    model::TargetModel tm(cfg, {});
    tm.prefill(somePrompt(cfg, 9));
    tm.beginToken(1, script(30, 31, 2));
    tm.runRemainingLayers();
    tm.reset();
    EXPECT_EQ(tm.position(), 0);
    for (int l = 0; l < cfg.n_layers; ++l)
        EXPECT_EQ(tm.kv().length(l), 0);
}
