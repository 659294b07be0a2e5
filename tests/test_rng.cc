/**
 * @file
 * RNG tests: determinism, distribution sanity, forking, Zipf.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/rng.hh"

using namespace specee;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng r(9);
    bool lo = false, hi = false;
    for (int i = 0; i < 1000; ++i) {
        int v = r.uniformInt(3, 7);
        ASSERT_GE(v, 3);
        ASSERT_LE(v, 7);
        lo |= v == 3;
        hi |= v == 7;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, NormalMomentsMatch)
{
    Rng r(11);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double x = r.normal(2.0, 3.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.1);
    EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

// skipNormals(n) must leave the stream exactly where n normal() calls
// leave it, spare included: the weight generator checkpoints its
// stream with it and fills the matrices in parallel from the copies.
TEST(Rng, SkipNormalsMatchesDrawing)
{
    for (bool spare_pending : {false, true}) {
        for (size_t n : {0, 1, 2, 3, 4, 5, 7, 64, 101}) {
            Rng drawn(31 + n);
            if (spare_pending)
                drawn.normal(); // leaves a spare behind
            Rng skipped = drawn;
            for (size_t i = 0; i < n; ++i)
                drawn.normal();
            skipped.skipNormals(n);
            // The next normals (the first may be a pending spare)
            // and the raw stream after them agree bit for bit.
            for (int i = 0; i < 3; ++i) {
                EXPECT_EQ(std::bit_cast<uint64_t>(skipped.normal()),
                          std::bit_cast<uint64_t>(drawn.normal()))
                    << "n=" << n << " spare=" << spare_pending;
            }
            EXPECT_EQ(skipped.next(), drawn.next())
                << "n=" << n << " spare=" << spare_pending;
        }
    }
}

TEST(Rng, BernoulliRate)
{
    Rng r(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, CategoricalFollowsWeights)
{
    Rng r(17);
    std::vector<float> w = {1.0f, 3.0f, 6.0f};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[r.categorical(w)];
    EXPECT_NEAR(counts[0] / 20000.0, 0.1, 0.02);
    EXPECT_NEAR(counts[1] / 20000.0, 0.3, 0.02);
    EXPECT_NEAR(counts[2] / 20000.0, 0.6, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng r(19);
    std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7};
    auto orig = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, ForkIsIndependentOfParentDraws)
{
    Rng a(23);
    Rng fork_before = a.fork(1);
    // Forks depend only on the parent's state at fork time.
    Rng b(23);
    Rng fork_b = b.fork(1);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(fork_before.next(), fork_b.next());
}

TEST(Zipf, PmfSumsToOne)
{
    ZipfSampler z(1000, 1.1);
    double total = 0.0;
    for (size_t i = 0; i < z.size(); ++i)
        total += z.pmf(i);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, HeadIsHeavierThanTail)
{
    ZipfSampler z(1000, 1.1);
    EXPECT_GT(z.pmf(0), z.pmf(10));
    EXPECT_GT(z.pmf(10), z.pmf(500));
}

TEST(Zipf, SamplingMatchesPmf)
{
    ZipfSampler z(50, 1.2);
    Rng r(29);
    std::vector<int> counts(50, 0);
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        ++counts[z.sample(r)];
    EXPECT_NEAR(counts[0] / static_cast<double>(n), z.pmf(0), 0.02);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), z.pmf(1), 0.02);
}
