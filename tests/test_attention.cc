/**
 * @file
 * Attention / FFN / decoder-layer tests against naive references.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "model/decoder_layer.hh"
#include "model/kv_cache.hh"
#include "tensor/kernels.hh"
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

} // namespace

TEST(Attention, FirstTokenAttendsOnlyToItself)
{
    auto c = cfg();
    Weights w(c, WeightBackend::Fp32, WeightBackend::Fp32);
    Attention attn(c);
    KvCache kv(c.n_layers, c.context_len, c.sim.hidden);
    auto x = randomVec(c.sim.hidden, 1);
    tensor::Vec out(static_cast<size_t>(c.sim.hidden));
    attn.forward(w.layer(0), 0, x, 0, kv, out);

    // With one position the softmax weight is 1, so out = wo(v).
    tensor::Vec v(static_cast<size_t>(c.sim.hidden));
    w.layer(0).wv->gemv(x, v);
    tensor::Vec expect(static_cast<size_t>(c.sim.hidden));
    w.layer(0).wo->gemv(v, expect);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_NEAR(out[i], expect[i], 1e-4f);
}

TEST(Attention, OutputChangesWithContext)
{
    auto c = cfg();
    Weights w(c, WeightBackend::Fp32, WeightBackend::Fp32);
    Attention attn(c);
    KvCache kv(c.n_layers, c.context_len, c.sim.hidden);
    auto x0 = randomVec(c.sim.hidden, 2);
    auto x1 = randomVec(c.sim.hidden, 3);
    tensor::Vec out0(static_cast<size_t>(c.sim.hidden));
    tensor::Vec out1(static_cast<size_t>(c.sim.hidden));
    attn.forward(w.layer(0), 0, x0, 0, kv, out0);
    attn.forward(w.layer(0), 0, x1, 1, kv, out1);

    // Same query vector with vs without history must differ.
    KvCache kv2(c.n_layers, c.context_len, c.sim.hidden);
    Attention attn2(c);
    tensor::Vec alone(static_cast<size_t>(c.sim.hidden));
    attn2.forward(w.layer(0), 0, x1, 0, kv2, alone);
    float diff = 0;
    for (size_t i = 0; i < out1.size(); ++i)
        diff += std::fabs(out1[i] - alone[i]);
    EXPECT_GT(diff, 1e-3f);
}

TEST(Attention, AppendsKvEachCall)
{
    auto c = cfg();
    Weights w(c, WeightBackend::Fp32, WeightBackend::Fp32);
    Attention attn(c);
    KvCache kv(c.n_layers, c.context_len, c.sim.hidden);
    auto x = randomVec(c.sim.hidden, 4);
    tensor::Vec out(static_cast<size_t>(c.sim.hidden));
    for (int p = 0; p < 5; ++p)
        attn.forward(w.layer(1), 1, x, p, kv, out);
    EXPECT_EQ(kv.length(1), 5);
    EXPECT_EQ(kv.length(0), 0);
}

TEST(Ffn, SparseWithFullFractionMatchesDense)
{
    auto c = cfg();
    Weights w(c, WeightBackend::Fp32, WeightBackend::Fp32);
    Ffn ffn(c);
    auto x = randomVec(c.sim.hidden, 5);
    tensor::Vec dense(static_cast<size_t>(c.sim.hidden));
    tensor::Vec sparse(static_cast<size_t>(c.sim.hidden));
    ffn.forward(w.layer(0), x, dense);
    ffn.forwardSparse(w.layer(0), x, 1.0f, sparse);
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
    ffn.forward(w.layer(0), x, out);
    EXPECT_EQ(ffn.lastActiveNeurons(), c.sim.ffn);
}

TEST(Ffn, SparseApproximatesDense)
{
    auto c = cfg();
    Weights w(c, WeightBackend::Fp32, WeightBackend::Fp32);
    Ffn ffn(c);
    auto x = randomVec(c.sim.hidden, 7);
    tensor::Vec dense(static_cast<size_t>(c.sim.hidden));
    tensor::Vec sparse(static_cast<size_t>(c.sim.hidden));
    ffn.forward(w.layer(0), x, dense);
    ffn.forwardSparse(w.layer(0), x, 0.5f, sparse);
    // Top-half neurons carry most of the activation energy.
    float num = 0, den = 0;
    for (size_t i = 0; i < dense.size(); ++i) {
        num += (dense[i] - sparse[i]) * (dense[i] - sparse[i]);
        den += dense[i] * dense[i];
    }
    EXPECT_LT(num, 0.6f * den);
}

TEST(DecoderLayer, ForwardUpdatesResidualAndKv)
{
    auto c = cfg();
    Weights w(c, WeightBackend::Fp32, WeightBackend::Fp32);
    DecoderLayer layer(c);
    KvCache kv(c.n_layers, c.context_len, c.sim.hidden);
    auto x = randomVec(c.sim.hidden, 8);
    auto before = x;
    layer.forward(w.layer(2), 2, x, 0, kv);
    EXPECT_EQ(kv.length(2), 1);
    float diff = 0;
    for (size_t i = 0; i < x.size(); ++i)
        diff += std::fabs(x[i] - before[i]);
    EXPECT_GT(diff, 1e-3f);
}

TEST(DecoderLayer, FillKvMatchesForwardProjection)
{
    auto c = cfg();
    Weights w(c, WeightBackend::Fp32, WeightBackend::Fp32);
    DecoderLayer layer(c);
    KvCache kv_fwd(c.n_layers, c.context_len, c.sim.hidden);
    KvCache kv_fill(c.n_layers, c.context_len, c.sim.hidden);
    auto x = randomVec(c.sim.hidden, 9);

    auto x_copy = x;
    layer.forward(w.layer(0), 0, x_copy, 3, kv_fwd);
    layer.fillKv(w.layer(0), 0, x, 3, kv_fill);

    // fillKv must append exactly the k/v the full forward would.
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
