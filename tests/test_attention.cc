/**
 * @file
 * Attention / FFN / decoder-layer tests against naive references,
 * through the block layer's two phases.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "model/decoder_layer.hh"
#include "model/kv_cache.hh"
#include "tensor/kernels.hh"
#include "test_util.hh"
#include "util/rng.hh"

using namespace specee;
using namespace specee::model;
using tensor::WeightBackend;

namespace {

ModelConfig
cfg()
{
    return ModelConfig::tiny();
}

tensor::Vec
randomVec(int n, uint64_t seed)
{
    tensor::Vec v(static_cast<size_t>(n));
    Rng rng(seed);
    for (auto &x : v)
        x = static_cast<float>(rng.normal(0.0, 0.3));
    return v;
}

/**
 * One row through layer l as TargetModel::runLayer runs it: the
 * projection phase, its k/v appended, attention over every cached
 * position, then the finish phase on x.
 */
void
decodeRow(DecoderLayer &layer, const LayerWeights &lw, int l,
          tensor::Span x, int pos, KvStore &kv)
{
    layer.project(lw, x, pos);
    kv.append(l, layer.k(0), layer.v(0));
    layer.attend(0, kv, l, kv.length(l));
    layer.finish(lw, x);
}

/**
 * What the layer's dense FFN adds to x: the finish phase over a zero
 * attention output (Wo of zero adds nothing), minus x. The FFN input
 * is rmsnorm(x) under the layer's FFN norm weight.
 */
tensor::Vec
denseFfnDelta(const ModelConfig &c, const LayerWeights &lw,
              const tensor::Vec &x)
{
    DecoderLayer layer(c);
    std::ranges::fill(layer.ctx(0), 0.0f);
    tensor::Vec out = x;
    layer.finish(lw, out);
    for (size_t i = 0; i < out.size(); ++i)
        out[i] -= x[i];
    return out;
}

/** The sparse FFN on the input denseFfnDelta() feeds the dense one. */
tensor::Vec
sparseFfn(Ffn &ffn, const LayerWeights &lw, const tensor::Vec &x,
          float active_frac)
{
    tensor::Vec normed(x.size()), out(x.size());
    tensor::rmsnorm(x, lw.rms_ffn, normed);
    ffn.forwardSparse(lw, normed, active_frac, out);
    return out;
}

} // namespace

TEST(Attention, FirstTokenAttendsOnlyToItself)
{
    auto c = cfg();
    Weights w(c, WeightBackend::Fp32, WeightBackend::Fp32);
    DecoderLayer layer(c);
    KvCache kv(c.n_layers, c.context_len, c.sim.hidden);
    auto x = randomVec(c.sim.hidden, 1);
    layer.project(w.layer(0), x, 0);
    kv.append(0, layer.k(0), layer.v(0));
    layer.attend(0, kv, 0, 1);
    tensor::Vec out(static_cast<size_t>(c.sim.hidden));
    w.layer(0).wo->gemv(layer.ctx(0), out);

    // With one position the softmax weight is 1, so out = wo(v), v
    // projected from the attention-normed input.
    tensor::Vec normed(static_cast<size_t>(c.sim.hidden));
    tensor::rmsnorm(x, w.layer(0).rms_attn, normed);
    tensor::Vec v(static_cast<size_t>(c.sim.hidden));
    w.layer(0).wv->gemv(normed, v);
    tensor::Vec expect(static_cast<size_t>(c.sim.hidden));
    w.layer(0).wo->gemv(v, expect);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_NEAR(out[i], expect[i], 1e-4f);
}

TEST(Attention, OutputChangesWithContext)
{
    auto c = cfg();
    Weights w(c, WeightBackend::Fp32, WeightBackend::Fp32);
    DecoderLayer layer(c);
    KvCache kv(c.n_layers, c.context_len, c.sim.hidden);
    auto x0 = randomVec(c.sim.hidden, 2);
    auto x1 = randomVec(c.sim.hidden, 3);
    auto out1 = x1;
    decodeRow(layer, w.layer(0), 0, x0, 0, kv);
    decodeRow(layer, w.layer(0), 0, out1, 1, kv);

    // Same query vector with vs without history must differ.
    KvCache kv2(c.n_layers, c.context_len, c.sim.hidden);
    DecoderLayer layer2(c);
    auto alone = x1;
    decodeRow(layer2, w.layer(0), 0, alone, 0, kv2);
    float diff = 0;
    for (size_t i = 0; i < out1.size(); ++i)
        diff += std::fabs(out1[i] - alone[i]);
    EXPECT_GT(diff, 1e-3f);
}

// A block of five rows appends the k/v of every row at its own layer,
// each row attending over the positions up to its own.
TEST(Attention, AppendsKvEachCall)
{
    auto c = cfg();
    Weights w(c, WeightBackend::Fp32, WeightBackend::Fp32);
    const auto h = static_cast<size_t>(c.sim.hidden);
    DecoderLayer layer(c, 5);
    KvCache kv(c.n_layers, c.context_len, c.sim.hidden);
    auto x = randomVec(c.sim.hidden, 4);
    tensor::Vec block(5 * h);
    for (size_t p = 0; p < 5; ++p)
        std::ranges::copy(x, block.begin() + static_cast<long>(p * h));
    layer.project(w.layer(1), block, 0);
    for (size_t p = 0; p < 5; ++p)
        kv.append(1, layer.k(p), layer.v(p));
    for (size_t p = 0; p < 5; ++p)
        layer.attend(p, kv, 1, static_cast<int>(p) + 1);
    layer.finish(w.layer(1), block);
    EXPECT_EQ(kv.length(1), 5);
    EXPECT_EQ(kv.length(0), 0);
}

TEST(Ffn, SparseWithFullFractionMatchesDense)
{
    auto c = cfg();
    Weights w(c, WeightBackend::Fp32, WeightBackend::Fp32);
    Ffn ffn(c);
    auto x = randomVec(c.sim.hidden, 5);
    const auto dense = denseFfnDelta(c, w.layer(0), x);
    const auto sparse = sparseFfn(ffn, w.layer(0), x, 1.0f);
    for (size_t i = 0; i < dense.size(); ++i)
        EXPECT_NEAR(dense[i], sparse[i], 1e-3f);
}

TEST(Ffn, SparseUsesRequestedNeuronBudget)
{
    auto c = cfg();
    Weights w(c, WeightBackend::Fp32, WeightBackend::Fp32);
    Ffn ffn(c);
    auto x = randomVec(c.sim.hidden, 6);
    tensor::Vec out(static_cast<size_t>(c.sim.hidden));
    ffn.forwardSparse(w.layer(0), x, 0.25f, out);
    EXPECT_EQ(ffn.lastActiveNeurons(),
              static_cast<int>(std::ceil(0.25 * c.sim.ffn)));
}

TEST(Ffn, SparseApproximatesDense)
{
    auto c = cfg();
    Weights w(c, WeightBackend::Fp32, WeightBackend::Fp32);
    Ffn ffn(c);
    auto x = randomVec(c.sim.hidden, 7);
    const auto dense = denseFfnDelta(c, w.layer(0), x);
    const auto sparse = sparseFfn(ffn, w.layer(0), x, 0.5f);
    // Top-half neurons carry most of the activation energy.
    float num = 0, den = 0;
    for (size_t i = 0; i < dense.size(); ++i) {
        num += (dense[i] - sparse[i]) * (dense[i] - sparse[i]);
        den += dense[i] * dense[i];
    }
    EXPECT_LT(num, 0.6f * den);
}

TEST(Ffn, SparseIsBitStable)
{
    // Repeated sparse forwards on one Ffn reuse its scratch; the
    // outputs are pinned bit for bit at two active fractions.
    auto c = cfg();
    Weights w(c, WeightBackend::Fp32, WeightBackend::Fp32);
    Ffn ffn(c);
    testutil::Digest d;
    for (const float frac : {0.3f, 1.0f}) {
        for (int call = 0; call < 3; ++call) {
            for (int l = 0; l < 2; ++l) {
                const auto x = randomVec(c.sim.hidden, 40 + l);
                d.span(sparseFfn(ffn, w.layer(l), x, frac));
                d.pod(ffn.lastActiveNeurons());
            }
        }
    }
    EXPECT_EQ(d.value(), testutil::pinned(0xc2de2815a642fb80ull,
                                          0x5f399ef8ccb5462cull));
}

TEST(DecoderLayer, ForwardUpdatesResidualAndKv)
{
    auto c = cfg();
    Weights w(c, WeightBackend::Fp32, WeightBackend::Fp32);
    DecoderLayer layer(c);
    KvCache kv(c.n_layers, c.context_len, c.sim.hidden);
    auto x = randomVec(c.sim.hidden, 8);
    auto before = x;
    decodeRow(layer, w.layer(2), 2, x, 0, kv);
    EXPECT_EQ(kv.length(2), 1);
    float diff = 0;
    for (size_t i = 0; i < x.size(); ++i)
        diff += std::fabs(x[i] - before[i]);
    EXPECT_GT(diff, 1e-3f);
}

TEST(DecoderLayer, KvOnlyProjectionMatchesForwardProjection)
{
    auto c = cfg();
    Weights w(c, WeightBackend::Fp32, WeightBackend::Fp32);
    DecoderLayer layer(c);
    KvCache kv_fwd(c.n_layers, c.context_len, c.sim.hidden);
    KvCache kv_fill(c.n_layers, c.context_len, c.sim.hidden);
    auto x = randomVec(c.sim.hidden, 9);

    auto x_copy = x;
    decodeRow(layer, w.layer(0), 0, x_copy, 3, kv_fwd);
    layer.projectKv(w.layer(0), x, 3);
    kv_fill.append(0, layer.k(0), layer.v(0));

    // projectKv must yield exactly the k/v the full forward appends.
    for (int d = 0; d < c.sim.hidden; ++d) {
        EXPECT_NEAR(kv_fill.key(0, 0)[static_cast<size_t>(d)],
                    kv_fwd.key(0, 0)[static_cast<size_t>(d)], 1e-5f);
        EXPECT_NEAR(kv_fill.value(0, 0)[static_cast<size_t>(d)],
                    kv_fwd.value(0, 0)[static_cast<size_t>(d)], 1e-5f);
    }
}

TEST(Weights, QuantizedProjectionsApproximateDense)
{
    auto c = cfg();
    Weights dense(c, WeightBackend::Fp32, WeightBackend::Fp32);
    Weights quant(c, WeightBackend::Q4, WeightBackend::Fp32);
    EXPECT_EQ(quant.layer(0).wq->backend(), WeightBackend::Q4);
    auto x = randomVec(c.sim.hidden, 10);
    tensor::Vec yd(static_cast<size_t>(c.sim.hidden));
    tensor::Vec yq(static_cast<size_t>(c.sim.hidden));
    dense.layer(0).wq->gemv(x, yd);
    quant.layer(0).wq->gemv(x, yq);
    for (size_t i = 0; i < yd.size(); ++i)
        EXPECT_NEAR(yd[i], yq[i], 0.08f);
}

TEST(Weights, EmbeddingRowsAreUnitNorm)
{
    auto c = cfg();
    Weights w(c, WeightBackend::Fp32, WeightBackend::Fp32);
    tensor::Vec row(static_cast<size_t>(c.sim.hidden));
    for (int t = 0; t < c.sim.vocab; t += 37) {
        w.embedding().copyRow(static_cast<size_t>(t), row);
        EXPECT_NEAR(tensor::norm2(row), 1.0f, 1e-4f);
    }
}

TEST(Weights, WholeModelBackendQuantizesHeadToo)
{
    auto c = cfg();
    Weights fp(c, WeightBackend::Fp32, WeightBackend::Fp32);
    Weights q8(c, WeightBackend::Q8, WeightBackend::Q8);
    EXPECT_EQ(q8.embedding().backend(), WeightBackend::Q8);
    EXPECT_EQ(q8.layer(0).wq->backend(), WeightBackend::Q8);
    // Quantized embedding rows stay close to the dense unit-norm rows.
    tensor::Vec dense_row(static_cast<size_t>(c.sim.hidden));
    tensor::Vec q8_row(dense_row.size());
    fp.embedding().copyRow(11, dense_row);
    q8.embedding().copyRow(11, q8_row);
    for (size_t i = 0; i < dense_row.size(); ++i)
        EXPECT_NEAR(q8_row[i], dense_row[i], 0.02f);
    // The AWQ pair keeps the head dense.
    Weights awq(c, WeightBackend::Q4, WeightBackend::Fp32);
    EXPECT_EQ(awq.embedding().backend(), WeightBackend::Fp32);
    EXPECT_EQ(awq.layer(0).wq->backend(), WeightBackend::Q4);
}
