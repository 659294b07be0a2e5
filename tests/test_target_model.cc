/**
 * @file
 * TargetModel tests: the probability-shift phenomenon (§4.2), KV
 * bookkeeping, early-exit state propagation and quantized variants.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
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
        tm.lmHead().sliced(tm.hidden(), spec, sliced);
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

namespace {

/** Bitwise equality of two float spans. */
bool
sameBits(tensor::CSpan a, tensor::CSpan b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/**
 * Decode the same scripted block of n_tok tokens after a prompt of
 * prompt_len tokens token by token (beginToken plus a runLayer() per
 * layer) on one model, and layer by layer (decodeScripted) at team
 * sizes 1 to 4 on another over the same weights, and check that they
 * agree bit for bit.
 */
void
expectScriptedBlockMatches(const model::ModelConfig &cfg,
                           const model::TargetModelOptions &opts,
                           size_t prompt_len, size_t n_tok)
{
    SCOPED_TRACE(cfg.name + (opts.sparse_ffn ? " sparse" : " dense") +
                 ", prompt " + std::to_string(prompt_len) + ", block " +
                 std::to_string(n_tok));
    const auto weights = std::make_shared<const model::Weights>(
        cfg, tensor::WeightBackend::Fp32, tensor::WeightBackend::Fp32);
    model::TargetModel byToken(cfg, opts, weights);
    model::TargetModel byLayer(cfg, opts, weights);
    oracle::SyntheticCorpus corpus(cfg.sim.vocab, 12);
    Rng rng(13);
    const auto prompt =
        corpus.sampleSequence(static_cast<int>(prompt_len), rng);
    std::vector<int> inputs;
    std::vector<model::TokenScript> scripts;
    int prev = prompt.back();
    for (size_t t = 0; t < n_tok; ++t) {
        const int target = rng.uniformInt(0, cfg.sim.vocab - 1);
        inputs.push_back(prev);
        scripts.push_back(script(target, (target + 3) % cfg.sim.vocab,
                                 rng.uniformInt(1, cfg.n_layers - 1)));
        prev = target;
    }

    const auto h = static_cast<size_t>(cfg.sim.hidden);
    const auto n_exit = static_cast<size_t>(cfg.n_layers - 1);
    // want[t * n_exit + l]: token t after exit layer l.
    std::vector<tensor::Vec> want(n_tok * n_exit);
    byToken.reset(0x5eed);
    byToken.prefill(prompt);
    for (size_t t = 0; t < n_tok; ++t) {
        byToken.beginToken(inputs[t], scripts[t]);
        for (size_t l = 0; l < n_exit; ++l) {
            const tensor::CSpan out = byToken.runLayer();
            want[t * n_exit + l].assign(out.begin(), out.end());
        }
        byToken.runRemainingLayers();
    }

    for (size_t team = 1; team <= 4; ++team) {
        SCOPED_TRACE("team " + std::to_string(team));
        byLayer.reset(0x5eed);
        byLayer.prefill(prompt);
        tensor::Vec got(n_tok * n_exit * h);
        byLayer.decodeScripted(inputs, scripts, got, team);
        for (size_t r = 0; r < want.size(); ++r) {
            EXPECT_TRUE(sameBits(tensor::CSpan(got).subspan(r * h, h),
                                 want[r]))
                << "token " << r / n_exit << " layer " << r % n_exit;
        }
        EXPECT_TRUE(sameBits(byLayer.hidden(), byToken.hidden()));
        EXPECT_EQ(byLayer.position(), byToken.position());
        EXPECT_EQ(byLayer.doneAllLayers(), byToken.doneAllLayers());

        // Every KV row, prompt and block.
        for (int l = 0; l < cfg.n_layers; ++l) {
            ASSERT_EQ(byLayer.kv().length(l), byToken.kv().length(l));
            for (int p = 0; p < byToken.kv().length(l); ++p) {
                EXPECT_TRUE(sameBits(byLayer.kv().key(l, p),
                                     byToken.kv().key(l, p)))
                    << "key layer " << l << " pos " << p;
                EXPECT_TRUE(sameBits(byLayer.kv().value(l, p),
                                     byToken.kv().value(l, p)))
                    << "value layer " << l << " pos " << p;
            }
        }

        // The noise stream ends in the same state.
        Rng a = byLayer.sequence().noiseRng;
        Rng b = byToken.sequence().noiseRng;
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(a.next(), b.next());
    }
}

} // namespace

// Profiling decodes each instance as one scripted block, layer by
// layer on a team of threads; what it records must be what
// token-by-token decode computes, whatever the team size. Blocks of
// 1, 9 and 37 tokens leave a ragged run of fewer than four tokens on
// some member at every team size from 1 to 4, and the last tiny block
// ends exactly at the context window.
TEST(TargetModel, ScriptedBlockMatchesTokenByToken)
{
    const auto tiny = tinyCfg();
    for (size_t n_tok : {1u, 6u, 9u, 37u})
        expectScriptedBlockMatches(tiny, {}, 8, n_tok);
    expectScriptedBlockMatches(
        tiny, {}, static_cast<size_t>(tiny.context_len) - 37, 37);
    model::TargetModelOptions sparse;
    sparse.sparse_ffn = true;
    expectScriptedBlockMatches(tiny, sparse, 8, 9);
    for (size_t n_tok : {6u, 37u})
        expectScriptedBlockMatches(model::ModelConfig::llama2_7b(), {}, 8,
                                   n_tok);
}
