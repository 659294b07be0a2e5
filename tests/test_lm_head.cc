/**
 * @file
 * LM head tests: full vs sliced vs grouped consistency — the kernel
 * core of the paper's search-space reduction (Fig. 2b, Fig. 13).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

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

namespace {

/**
 * Answers of isArgmax() and isArgmaxRows() about the rows of `block`
 * (n x hidden) that disagree with argmaxToken() == token, over every
 * token.
 */
int
argmaxTestMismatches(const LmHead &head, tensor::CSpan block)
{
    const auto h = static_cast<size_t>(head.hidden());
    const size_t n = block.size() / h;
    std::vector<int> best(n);
    for (size_t j = 0; j < n; ++j)
        best[j] = head.argmaxToken(block.subspan(j * h, h));
    int bad = 0;
    for (int t = 0; t < head.vocab(); ++t) {
        const std::vector<bool> rows = head.isArgmaxRows(block, t);
        for (size_t j = 0; j < n; ++j) {
            bad += rows[j] != (best[j] == t) ? 1 : 0;
            bad += head.isArgmax(block.subspan(j * h, h), t) !=
                           (best[j] == t)
                       ? 1
                       : 0;
        }
    }
    return bad;
}

/** A vocab x hidden head of normal draws. */
tensor::Matrix
randomHead(size_t vocab, size_t hidden, uint64_t seed)
{
    tensor::Matrix m(vocab, hidden);
    Rng rng(seed);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(rng.normal());
    return m;
}

} // namespace

// The exit label and the verifier ask only whether a token is the
// argmax; isArgmax must answer exactly as argmaxToken() does, first
// maximum on ties included, on every backend, at both dispatch levels.
TEST(LmHead, IsArgmaxEqualsArgmaxTest)
{
    const tensor::simd::Level prev = tensor::simd::activeLevel();
    for (const ModelConfig &cfg :
         {ModelConfig::tiny(), ModelConfig::llama2_7b()}) {
        const auto vocab = static_cast<size_t>(cfg.sim.vocab);
        const auto hidden = static_cast<size_t>(cfg.sim.hidden);
        const tensor::Matrix random = randomHead(vocab, hidden, 11);
        const tensor::Vec rms = randomVec(cfg.sim.hidden, 12);
        const tensor::Vec h = randomVec(cfg.sim.hidden, 13);
        const int top = [&] {
            const auto emb = tensor::makeWeightStore(random,
                                                     tensor::WeightBackend::Fp32);
            return LmHead(*emb, rms).argmaxToken(h);
        }();
        ASSERT_GT(top, 0);
        ASSERT_LT(top, cfg.sim.vocab - 1);
        // The argmax row copied below it (the copy wins the tie) and
        // above it (the original keeps it); then every row equal.
        tensor::Matrix below = random, above = random;
        const auto t = static_cast<size_t>(top);
        std::copy(random.row(t).begin(), random.row(t).end(),
                  below.row(t / 2).begin());
        std::copy(random.row(t).begin(), random.row(t).end(),
                  above.row((t + vocab) / 2).begin());
        tensor::Matrix flat(vocab, hidden);
        for (size_t r = 0; r < vocab; ++r)
            std::copy(random.row(0).begin(), random.row(0).end(),
                      flat.row(r).begin());

        for (auto level : {tensor::simd::Level::Scalar,
                           tensor::simd::detectLevel()}) {
            tensor::simd::setLevel(level);
            for (auto b : {tensor::WeightBackend::Fp32,
                           tensor::WeightBackend::Q8,
                           tensor::WeightBackend::Q4}) {
                const std::string where =
                    cfg.name + " " + tensor::simd::levelName(level) + " " +
                    tensor::weightBackendName(b);
                const auto rnd = tensor::makeWeightStore(random, b);
                const LmHead head(*rnd, rms);
                // Three unrelated rows, then h twice scaled, whose
                // rows share an argmax (RMSNorm undoes the scale).
                EXPECT_EQ(argmaxTestMismatches(
                              head, randomVec(3 * cfg.sim.hidden, 14)),
                          0)
                    << where;
                tensor::Vec scaled(h);
                scaled.insert(scaled.end(), h.begin(), h.end());
                tensor::scaleInplace(
                    tensor::Span(scaled).subspan(hidden, hidden), 3.0f);
                EXPECT_EQ(argmaxTestMismatches(head, scaled), 0) << where;
                // A copied row quantizes to the same row, so the tie
                // holds on every backend; where it sits is fp32's.
                const auto lo = tensor::makeWeightStore(below, b);
                const LmHead head_lo(*lo, rms);
                const auto hi = tensor::makeWeightStore(above, b);
                const LmHead head_hi(*hi, rms);
                if (b == tensor::WeightBackend::Fp32) {
                    EXPECT_EQ(head_lo.argmaxToken(h), top / 2) << where;
                    EXPECT_EQ(head_hi.argmaxToken(h), top) << where;
                }
                EXPECT_EQ(argmaxTestMismatches(head_lo, h), 0) << where;
                EXPECT_EQ(argmaxTestMismatches(head_hi, h), 0) << where;
                const auto eq = tensor::makeWeightStore(flat, b);
                const LmHead head_eq(*eq, rms);
                EXPECT_TRUE(head_eq.isArgmax(h, 0)) << where;
                EXPECT_EQ(argmaxTestMismatches(head_eq, h), 0) << where;
            }
        }
    }
    tensor::simd::setLevel(prev);
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
