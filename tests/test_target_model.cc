/**
 * @file
 * TargetModel tests: the probability-shift phenomenon (§4.2), KV
 * bookkeeping, early-exit state propagation and quantized variants.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>

#include "model/draft_model.hh"
#include "model/kv_cache.hh"
#include "model/target_model.hh"
#include "oracle/corpus.hh"
#include "tensor/kernels.hh"

using namespace specee;

// One model serves all of its sequences, each carrying its own state,
// so it is shared by reference, never duplicated.
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
    const model::TargetModel tm(cfg, {});
    auto s = tm.makeSequence();
    tm.prefill(s, somePrompt(cfg, 1));
    Rng rng(3);
    int input = 5;
    for (int t = 0; t < 24; ++t) {
        const int target = rng.uniformInt(10, cfg.sim.vocab - 1);
        int distract = rng.uniformInt(10, cfg.sim.vocab - 1);
        if (distract == target)
            distract = (distract + 1) % cfg.sim.vocab;
        const int conv = rng.uniformInt(1, cfg.n_layers - 1);
        tm.beginToken(s, input, script(target, distract, conv));
        const int out = tm.runRemainingLayers(s);
        EXPECT_EQ(out, target) << "token " << t << " conv " << conv;
        input = out;
    }
}

TEST(TargetModel, ProbabilityShiftAtConvergenceLayer)
{
    auto cfg = tinyCfg();
    const model::TargetModel tm(cfg, {});
    auto s = tm.makeSequence();
    tm.prefill(s, somePrompt(cfg, 2));

    const int target = 100, distract = 200, conv = 4;
    tm.beginToken(s, 7, script(target, distract, conv));

    std::vector<float> target_prob_per_layer;
    const std::vector<int> spec = {target, 150, 250, 300};
    tensor::Vec sliced(spec.size());
    for (int l = 0; l < cfg.n_layers; ++l) {
        tm.lmHead().sliced(tm.runLayer(s), spec, sliced);
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
    const model::TargetModel tm(cfg, {});
    auto s = tm.makeSequence();
    tm.prefill(s, somePrompt(cfg, 3));

    const int target = 101, distract = 201, conv = 6;
    tm.beginToken(s, 9, script(target, distract, conv));
    int distractor_hits = 0;
    for (int l = 0; l < conv - 1; ++l) {
        const tensor::CSpan h = tm.runLayer(s);
        if (l >= 2 && tm.lmHead().argmaxToken(h) == distract)
            ++distractor_hits;
    }
    // After the distractor ramp-in, the global argmax should usually
    // be the distractor before convergence.
    EXPECT_GE(distractor_hits, 2);
    // And after convergence it must be the target.
    while (s.layer < conv + 2)
        tm.runLayer(s);
    EXPECT_EQ(tm.lmHead().argmaxToken(s.tok.hidden), target);
}

TEST(TargetModel, EarlyExitFillsKvForSkippedLayers)
{
    auto cfg = tinyCfg();
    const model::TargetModel tm(cfg, {});
    auto s = tm.makeSequence();
    auto prompt = somePrompt(cfg, 4);
    tm.prefill(s, prompt);
    const int base = static_cast<int>(prompt.size());
    EXPECT_EQ(s.pos, base);

    tm.beginToken(s, 3, script(50, 60, 2));
    tm.runLayer(s);
    tm.runLayer(s);
    tm.runLayer(s); // exit after layer 2
    const int filled = tm.finishEarly(s);
    EXPECT_EQ(filled, cfg.n_layers - 3);
    EXPECT_EQ(s.pos, base + 1);
    // Every layer must now hold KV for the new position.
    for (int l = 0; l < cfg.n_layers; ++l)
        EXPECT_EQ(s.kv->length(l), base + 1) << "layer " << l;
}

TEST(TargetModel, DeterministicAcrossInstances)
{
    auto cfg = tinyCfg();
    const model::TargetModel a(cfg, {});
    const model::TargetModel b(cfg, {});
    auto sa = a.makeSequence();
    auto sb = b.makeSequence();
    auto prompt = somePrompt(cfg, 5);
    a.prefill(sa, prompt);
    b.prefill(sb, prompt);
    a.beginToken(sa, 11, script(70, 80, 3));
    b.beginToken(sb, 11, script(70, 80, 3));
    for (int l = 0; l < cfg.n_layers; ++l) {
        auto ha = a.runLayer(sa);
        auto hb = b.runLayer(sb);
        for (size_t i = 0; i < ha.size(); ++i)
            ASSERT_FLOAT_EQ(ha[i], hb[i]);
    }
}

TEST(TargetModel, QuantizedModelStillEmitsTarget)
{
    auto cfg = tinyCfg();
    // AWQ pair: Q4 projections, dense tied head.
    const model::TargetModel tm(
        cfg, {},
        std::make_shared<const model::Weights>(
            cfg, tensor::WeightBackend::Q4, tensor::WeightBackend::Fp32));
    auto s = tm.makeSequence();
    tm.prefill(s, somePrompt(cfg, 6));
    Rng rng(17);
    int input = 2;
    for (int t = 0; t < 12; ++t) {
        const int target = rng.uniformInt(10, cfg.sim.vocab - 1);
        const int conv = rng.uniformInt(1, cfg.n_layers - 1);
        tm.beginToken(s, input,
                      script(target, (target + 7) % cfg.sim.vocab, conv));
        EXPECT_EQ(tm.runRemainingLayers(s), target);
        input = target;
    }
}

TEST(TargetModel, PagedKvVariantMatchesContiguous)
{
    // A default sequence is paged; `contiguous` runs on the reference
    // store passed to makeSequence().
    auto cfg = tinyCfg();
    const model::TargetModel tm(cfg, {});
    auto paged = tm.makeSequence();
    auto contiguous = tm.makeSequence(std::make_unique<model::KvCache>(
        cfg.n_layers, cfg.context_len, cfg.sim.hidden));
    auto prompt = somePrompt(cfg, 7);
    tm.prefill(paged, prompt);
    tm.prefill(contiguous, prompt);
    tm.beginToken(paged, 4, script(90, 91, 5));
    tm.beginToken(contiguous, 4, script(90, 91, 5));
    for (int l = 0; l < cfg.n_layers; ++l) {
        auto ha = tm.runLayer(paged);
        auto hb = tm.runLayer(contiguous);
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
    const model::TargetModel tm(cfg, opts);
    auto s = tm.makeSequence();
    tm.prefill(s, somePrompt(cfg, 8));
    tm.beginToken(s, 6, script(120, 121, 3));
    EXPECT_EQ(tm.runRemainingLayers(s), 120);
}

TEST(TargetModel, ResetClearsState)
{
    auto cfg = tinyCfg();
    const model::TargetModel tm(cfg, {});
    auto s = tm.makeSequence();
    tm.prefill(s, somePrompt(cfg, 9));
    tm.beginToken(s, 1, script(30, 31, 2));
    tm.runRemainingLayers(s);
    tm.reset(s);
    EXPECT_EQ(s.pos, 0);
    for (int l = 0; l < cfg.n_layers; ++l)
        EXPECT_EQ(s.kv->length(l), 0);
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
 * Every KV row of every layer of `a` and `b` is equal bit for bit,
 * and so are the next draws of their noise streams.
 */
void
expectSameKvAndNoise(const model::SequenceState &a,
                     const model::SequenceState &b, int n_layers)
{
    for (int l = 0; l < n_layers; ++l) {
        ASSERT_EQ(a.kv->length(l), b.kv->length(l));
        for (int p = 0; p < b.kv->length(l); ++p) {
            EXPECT_TRUE(sameBits(a.kv->key(l, p), b.kv->key(l, p)))
                << "key layer " << l << " pos " << p;
            EXPECT_TRUE(sameBits(a.kv->value(l, p), b.kv->value(l, p)))
                << "value layer " << l << " pos " << p;
        }
    }
    Rng ra = a.noiseRng;
    Rng rb = b.noiseRng;
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(ra.next(), rb.next());
}

/**
 * Decode the same scripted block of n_tok tokens after a prompt of
 * prompt_len tokens token by token (beginToken plus a runLayer() per
 * layer) on one sequence, and layer by layer (decodeScripted) at team
 * sizes 1 to 4 on another of the same model, and check that they
 * agree bit for bit. The layers' projections are stored in
 * `backend`; the head stays dense.
 */
void
expectScriptedBlockMatches(const model::ModelConfig &cfg,
                           const model::TargetModelOptions &opts,
                           size_t prompt_len, size_t n_tok,
                           tensor::WeightBackend backend =
                               tensor::WeightBackend::Fp32)
{
    SCOPED_TRACE(cfg.name + " " + tensor::weightBackendName(backend) +
                 (opts.sparse_ffn ? " sparse" : " dense") + ", prompt " +
                 std::to_string(prompt_len) + ", block " +
                 std::to_string(n_tok));
    const auto weights = std::make_shared<const model::Weights>(
        cfg, backend, tensor::WeightBackend::Fp32);
    const model::TargetModel tokenModel(cfg, opts, weights);
    const model::TargetModel layerModel(cfg, opts, weights);
    auto byToken = tokenModel.makeSequence();
    auto byLayer = layerModel.makeSequence();
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
    tokenModel.reset(byToken, 0x5eed);
    tokenModel.prefill(byToken, prompt);
    for (size_t t = 0; t < n_tok; ++t) {
        tokenModel.beginToken(byToken, inputs[t], scripts[t]);
        for (size_t l = 0; l < n_exit; ++l) {
            const tensor::CSpan out = tokenModel.runLayer(byToken);
            want[t * n_exit + l].assign(out.begin(), out.end());
        }
        tokenModel.runRemainingLayers(byToken);
    }

    for (size_t team = 1; team <= 4; ++team) {
        SCOPED_TRACE("team " + std::to_string(team));
        layerModel.reset(byLayer, 0x5eed);
        layerModel.prefill(byLayer, prompt);
        tensor::Vec got(n_tok * n_exit * h);
        layerModel.decodeScripted(byLayer, inputs, scripts, got, team);
        for (size_t r = 0; r < want.size(); ++r) {
            EXPECT_TRUE(sameBits(tensor::CSpan(got).subspan(r * h, h),
                                 want[r]))
                << "token " << r / n_exit << " layer " << r % n_exit;
        }
        EXPECT_TRUE(sameBits(byLayer.tok.hidden, byToken.tok.hidden));
        EXPECT_EQ(byLayer.pos, byToken.pos);
        EXPECT_EQ(byLayer.layer, byToken.layer);
        // Every KV row, prompt and block, and the noise stream.
        expectSameKvAndNoise(byLayer, byToken, cfg.n_layers);
    }
}

} // namespace

// Profiling decodes each instance as one scripted block, layer by
// layer on a team of threads; what it records must be what
// token-by-token decode computes, whatever the team size. Blocks of
// 1, 9 and 37 tokens leave a ragged run of fewer than four tokens on
// some member at every team size from 1 to 4, and the last tiny block
// ends exactly at the context window. The quantized backends run
// the same block layer over their own batched GEMVs.
TEST(TargetModel, ScriptedBlockMatchesTokenByToken)
{
    const auto tiny = tinyCfg();
    for (size_t n_tok : {1u, 6u, 9u, 37u})
        expectScriptedBlockMatches(tiny, {}, 8, n_tok);
    for (const auto backend :
         {tensor::WeightBackend::Q8, tensor::WeightBackend::Q4})
        expectScriptedBlockMatches(tiny, {}, 8, 9, backend);
    expectScriptedBlockMatches(
        tiny, {}, static_cast<size_t>(tiny.context_len) - 37, 37);
    model::TargetModelOptions sparse;
    sparse.sparse_ffn = true;
    expectScriptedBlockMatches(tiny, sparse, 8, 9);
    for (size_t n_tok : {6u, 37u})
        expectScriptedBlockMatches(model::ModelConfig::llama2_7b(), {}, 8,
                                   n_tok);
}

namespace {

/**
 * One sequence's scripted decode on a shared model: n tokens after
 * its prompt, each fed the previous emission. With exit_after > 0
 * every token exits after that many layers through finishEarly(),
 * emitting the head's argmax there; otherwise it runs its last layer
 * through runRemainingLayers(). step() advances one layer, so
 * several sequences can be interleaved layer by layer.
 */
struct ScriptedSequence
{
    const model::TargetModel &tm;
    std::vector<model::TokenScript> scripts;
    int exit_after;
    model::SequenceState s;
    int input = 0;
    std::vector<tensor::Vec> hiddens; ///< every layer's output, in order
    std::vector<int> emitted;

    ScriptedSequence(const model::TargetModel &model, uint64_t seed,
                     size_t n_tok, int exit_layers)
        : tm(model), exit_after(exit_layers), s(model.makeSequence())
    {
        const int vocab = tm.config().sim.vocab;
        Rng rng(seed);
        for (size_t t = 0; t < n_tok; ++t) {
            const int target = rng.uniformInt(0, vocab - 1);
            scripts.push_back(script(target, (target + 5) % vocab,
                                     rng.uniformInt(1, tm.nLayers() - 1)));
        }
        const auto prompt = somePrompt(tm.config(), seed);
        tm.reset(s, seed);
        tm.prefill(s, prompt);
        input = prompt.back();
    }

    /** Run the next layer; false once every token is emitted. */
    bool step()
    {
        if (emitted.size() == scripts.size())
            return false;
        if (!s.inToken)
            tm.beginToken(s, input, scripts[emitted.size()]);
        if (exit_after == 0 && s.layer == tm.nLayers() - 1) {
            input = tm.runRemainingLayers(s);
        } else {
            tm.runLayer(s);
            if (s.layer == exit_after) {
                input = tm.lmHead().argmaxToken(s.tok.hidden);
                tm.finishEarly(s);
            }
        }
        hiddens.emplace_back(s.tok.hidden.begin(), s.tok.hidden.end());
        if (!s.inToken)
            emitted.push_back(input);
        return true;
    }

    void run()
    {
        while (step()) {
        }
    }
};

/** `got` computed exactly what `want` computed, bit for bit. */
void
expectSameDecode(const ScriptedSequence &got, const ScriptedSequence &want)
{
    EXPECT_EQ(got.emitted, want.emitted);
    ASSERT_EQ(got.hiddens.size(), want.hiddens.size());
    for (size_t i = 0; i < want.hiddens.size(); ++i) {
        EXPECT_TRUE(sameBits(got.hiddens[i], want.hiddens[i]))
            << "step " << i;
    }
    EXPECT_EQ(got.s.pos, want.s.pos);
    expectSameKvAndNoise(got.s, want.s, want.tm.nLayers());
}

} // namespace

// Prefill projects a block of prompt tokens at a time; every KV row
// must equal a one-row DecoderLayer::projectKv of that token alone.
// 11 tokens end in a ragged block, a second call continues at the
// next position, and Q8 weights cover the backends whose batched
// GEMV loops the single one.
TEST(TargetModel, PrefillMatchesTokenByTokenFill)
{
    const auto cfg = tinyCfg();
    oracle::SyntheticCorpus corpus(cfg.sim.vocab, 21);
    Rng rng(22);
    const auto prompt = corpus.sampleSequence(11, rng);
    const std::vector<int> more = {prompt[3], prompt[0]};
    for (const auto backend :
         {tensor::WeightBackend::Fp32, tensor::WeightBackend::Q8}) {
        SCOPED_TRACE(tensor::weightBackendName(backend));
        const auto weights = std::make_shared<const model::Weights>(
            cfg, backend, tensor::WeightBackend::Fp32);
        const model::TargetModel tm(cfg, {}, weights);
        auto batched = tm.makeSequence();
        tm.reset(batched, 3);
        tm.prefill(batched, prompt);
        tm.prefill(batched, more);

        auto byToken = tm.makeSequence();
        tm.reset(byToken, 3);
        model::DecoderLayer layer(cfg);
        tensor::Vec emb(static_cast<size_t>(cfg.sim.hidden));
        int pos = 0;
        for (const auto *toks : {&prompt, &more}) {
            for (int tok : *toks) {
                weights->embedding().copyRow(static_cast<size_t>(tok),
                                             emb);
                for (int l = 0; l < cfg.n_layers; ++l) {
                    layer.projectKv(weights->layer(l), emb, pos);
                    byToken.kv->append(l, layer.k(0), layer.v(0));
                }
                ++pos;
            }
        }
        EXPECT_EQ(batched.pos, pos);
        expectSameKvAndNoise(batched, byToken, cfg.n_layers);
    }
}

// Sequences share only the immutable model: two of them, with their
// own scripts, noise streams and exit depths, decode exactly as they
// do alone, whether interleaved layer by layer on one thread or run
// concurrently on two.
TEST(TargetModel, SequencesDecodeIndependently)
{
    const auto cfg = tinyCfg();
    const model::TargetModel tm(cfg, {});
    const auto make = [&](uint64_t seed, int exit_after) {
        return ScriptedSequence(tm, seed, 5, exit_after);
    };
    ScriptedSequence full = make(21, 0), early = make(22, 3);
    full.run();
    early.run();
    ASSERT_EQ(full.emitted.size(), 5u);
    ASSERT_EQ(early.hiddens.size(), 5u * 3u);

    // Both take their first tokens' layers in lockstep.
    ScriptedSequence a = make(21, 0), b = make(22, 3);
    bool more = true;
    while (more) {
        more = a.step();
        more = b.step() || more;
    }
    expectSameDecode(a, full);
    expectSameDecode(b, early);

    ScriptedSequence c = make(21, 0), d = make(22, 3);
    std::thread tc([&] { c.run(); });
    std::thread td([&] { d.run(); });
    tc.join();
    td.join();
    expectSameDecode(c, full);
    expectSameDecode(d, early);
}

// A state sized for one model must not enter another: the tiny
// model's 64-wide hidden state cannot run through llama2-7b's layers.
TEST(TargetModelDeathTest, ForeignSequenceStateIsRejected)
{
    const model::TargetModel tiny(tinyCfg(), {});
    const model::TargetModel big(model::ModelConfig::llama2_7b(), {});
    auto s = tiny.makeSequence();
    const char *msg = "sequence state does not match the model";
    EXPECT_DEATH(big.reset(s), msg);
    EXPECT_DEATH(big.prefill(s, {1, 2}), msg);
    EXPECT_DEATH(big.beginToken(s, 1, script(2, 3, 1)), msg);
    tensor::Vec none;
    EXPECT_DEATH(big.decodeScripted(s, {}, {}, none), msg);
}
