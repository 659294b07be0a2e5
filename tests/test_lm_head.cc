/**
 * @file
 * LM head tests: full vs sliced vs grouped consistency — the kernel
 * core of the paper's search-space reduction (Fig. 2b, Fig. 13).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "model/lm_head.hh"
#include "model/weights.hh"
#include "tensor/kernels.hh"
#include "tensor/simd.hh"
#include "util/rng.hh"

using namespace specee;
using namespace specee::model;

namespace {

struct Fixture
{
    ModelConfig cfg = ModelConfig::tiny();
    Weights w{cfg, tensor::WeightBackend::Fp32, tensor::WeightBackend::Fp32};
    LmHead head{w.embedding(), w.rmsFinal()};
};

tensor::Vec
randomVec(int n, uint64_t seed)
{
    tensor::Vec v(static_cast<size_t>(n));
    Rng rng(seed);
    for (auto &x : v)
        x = static_cast<float>(rng.normal());
    return v;
}

} // namespace

TEST(LmHead, SlicedEqualsGatherOfFull)
{
    Fixture f;
    auto h = randomVec(f.cfg.sim.hidden, 1);
    tensor::Vec full(static_cast<size_t>(f.cfg.sim.vocab));
    f.head.full(h, full);
    std::vector<int> toks = {0, 5, 99, 511};
    tensor::Vec sliced(toks.size());
    f.head.sliced(h, toks, sliced);
    for (size_t i = 0; i < toks.size(); ++i)
        EXPECT_FLOAT_EQ(sliced[i], full[static_cast<size_t>(toks[i])]);
}

TEST(LmHead, GroupedEqualsPerGroupSliced)
{
    Fixture f;
    auto h1 = randomVec(f.cfg.sim.hidden, 2);
    auto h2 = randomVec(f.cfg.sim.hidden, 3);
    std::vector<std::vector<int>> groups = {{1, 2, 3, 4}, {7, 8}};
    std::vector<tensor::CSpan> hiddens = {h1, h2};
    std::vector<tensor::Vec> grouped;
    f.head.grouped(hiddens, groups, grouped);

    ASSERT_EQ(grouped.size(), 2u);
    tensor::Vec s1(4), s2(2);
    f.head.sliced(h1, groups[0], s1);
    f.head.sliced(h2, groups[1], s2);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(grouped[0][i], s1[i]);
    for (size_t i = 0; i < 2; ++i)
        EXPECT_FLOAT_EQ(grouped[1][i], s2[i]);
}

// The multi-row head labels profiling rows; every row must equal
// full() bit for bit on every backend and under both SIMD dispatch
// levels. The 200-token vocabulary leaves a ragged last tile.
TEST(LmHead, FullRowsEqualsFullBitwise)
{
    const tensor::simd::Level prev = tensor::simd::activeLevel();
    const tensor::Matrix dense = [] {
        tensor::Matrix m(200, 24);
        Rng rng(6);
        for (size_t i = 0; i < m.size(); ++i)
            m.data()[i] = static_cast<float>(rng.normal());
        return m;
    }();
    const tensor::Vec rms = randomVec(24, 7);
    const tensor::Vec hiddens = randomVec(5 * 24, 8);
    for (auto level : {tensor::simd::Level::Scalar,
                       tensor::simd::detectLevel()}) {
        tensor::simd::setLevel(level);
        for (auto b : {tensor::WeightBackend::Fp32, tensor::WeightBackend::Q8,
                       tensor::WeightBackend::Q4}) {
            const auto emb = tensor::makeWeightStore(dense, b);
            const LmHead head(*emb, rms);
            for (size_t n : {1, 4, 5}) {
                tensor::Vec rows(n * 200);
                head.fullRows(tensor::CSpan(hiddens).first(n * 24), rows);
                tensor::Vec one(200);
                for (size_t j = 0; j < n; ++j) {
                    head.full(tensor::CSpan(hiddens).subspan(j * 24, 24),
                              one);
                    EXPECT_EQ(std::memcmp(rows.data() + j * 200, one.data(),
                                          200 * sizeof(float)),
                              0)
                        << tensor::simd::levelName(level) << " "
                        << tensor::weightBackendName(b) << " n=" << n
                        << " row " << j;
                }
            }
        }
    }
    tensor::simd::setLevel(prev);
}

TEST(LmHead, ArgmaxConsistentWithFull)
{
    Fixture f;
    auto h = randomVec(f.cfg.sim.hidden, 4);
    tensor::Vec full(static_cast<size_t>(f.cfg.sim.vocab));
    f.head.full(h, full);
    EXPECT_EQ(f.head.argmaxToken(h),
              static_cast<int>(tensor::argmax(full)));
}

TEST(LmHead, ScaleInvarianceFromRmsNorm)
{
    Fixture f;
    auto h = randomVec(f.cfg.sim.hidden, 5);
    auto h2 = h;
    tensor::scaleInplace(h2, 3.0f);
    // RMSNorm inside the head makes logits scale-invariant.
    tensor::Vec a(static_cast<size_t>(f.cfg.sim.vocab));
    tensor::Vec b(static_cast<size_t>(f.cfg.sim.vocab));
    f.head.full(h, a);
    f.head.full(h2, b);
    for (size_t i = 0; i < a.size(); i += 61)
        EXPECT_NEAR(a[i], b[i], 1e-3f);
}

TEST(LmHead, VocabAndHiddenAccessors)
{
    Fixture f;
    EXPECT_EQ(f.head.vocab(), f.cfg.sim.vocab);
    EXPECT_EQ(f.head.hidden(), f.cfg.sim.hidden);
}
