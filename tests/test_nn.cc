/**
 * @file
 * Neural-net substrate tests: Linear backward via numeric gradient
 * check, MLP training on synthetic tasks, SVM, parameter counting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "nn/mlp.hh"
#include "nn/svm.hh"
#include "tensor/kernels.hh"
#include "test_util.hh"

using namespace specee;
using namespace specee::nn;

namespace {

/** Linearly separable 2-D dataset. */
Dataset
separable(int n, uint64_t seed)
{
    Dataset d(2);
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
        float x = static_cast<float>(rng.uniform(-1.0, 1.0));
        float y = static_cast<float>(rng.uniform(-1.0, 1.0));
        float label = (x + y > 0.1f) ? 1.0f : 0.0f;
        std::vector<float> f = {x, y};
        d.add(f, label);
    }
    return d;
}

/** XOR-style dataset: not linearly separable. */
Dataset
xorData(int n, uint64_t seed)
{
    Dataset d(2);
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
        float x = static_cast<float>(rng.uniform(-1.0, 1.0));
        float y = static_cast<float>(rng.uniform(-1.0, 1.0));
        float label = (x * y > 0.0f) ? 1.0f : 0.0f;
        std::vector<float> f = {x, y};
        d.add(f, label);
    }
    return d;
}

/** 12-dim features with a noisy linear label, like the exit features. */
Dataset
exitLike(int n, uint64_t seed)
{
    Dataset d(12);
    Rng rng(seed);
    std::vector<float> f(12);
    for (int i = 0; i < n; ++i) {
        float score = 0.0f;
        for (size_t k = 0; k < f.size(); ++k) {
            f[k] = static_cast<float>(rng.uniform(-1.0, 1.0));
            score += (k % 3 == 0 ? 1.0f : -0.5f) * f[k];
        }
        score += static_cast<float>(rng.uniform(-0.3, 0.3));
        d.add(f, score > 0.0f ? 1.0f : 0.0f);
    }
    return d;
}

} // namespace

TEST(Linear, ForwardIsAffine)
{
    Rng rng(1);
    Linear lin(3, 2, rng);
    lin.weights().fill(0.0f);
    lin.weights().at(0, 0) = 2.0f;
    lin.weights().at(1, 2) = -1.0f;
    lin.bias() = {0.5f, 1.0f};
    tensor::Vec x = {1.0f, 0.0f, 3.0f};
    tensor::Vec out(2);
    lin.forward(x, out);
    EXPECT_FLOAT_EQ(out[0], 2.5f);
    EXPECT_FLOAT_EQ(out[1], -2.0f);
}

TEST(Linear, BackwardMatchesNumericGradient)
{
    Rng rng(2);
    Linear lin(4, 3, rng);
    tensor::Vec x = {0.3f, -0.2f, 0.8f, 0.1f};
    tensor::Vec d_out = {1.0f, -0.5f, 0.25f};
    tensor::Vec d_x(4);
    // One sample: its [unit][sample] columns are plain vectors.
    lin.inputGrad(d_out.data(), 1, nullptr, d_x.data());

    // Numeric check of d_x: loss = d_out . f(x).
    const float eps = 1e-3f;
    for (size_t i = 0; i < x.size(); ++i) {
        tensor::Vec xp = x, xm = x;
        xp[i] += eps;
        xm[i] -= eps;
        tensor::Vec op(3), om(3);
        lin.forward(xp, op);
        lin.forward(xm, om);
        float lp = tensor::dot(op, d_out);
        float lm = tensor::dot(om, d_out);
        EXPECT_NEAR(d_x[i], (lp - lm) / (2 * eps), 1e-2f) << i;
    }
}

TEST(Mlp, RejectsBadArchitectures)
{
    EXPECT_DEATH(Mlp({5}, 1), "at least");
    EXPECT_DEATH(Mlp({5, 3}, 1), "end in 1");
}

TEST(Mlp, LearnsLinearlySeparableData)
{
    Mlp mlp({2, 16, 1}, 3);
    auto data = separable(400, 4);
    TrainConfig cfg;
    cfg.epochs = 30;
    auto stats = mlp.fit(data, cfg);
    EXPECT_GT(stats.train_accuracy, 0.95);
    EXPECT_LT(stats.final_loss, 0.35);
}

TEST(Mlp, LearnsXorWithHiddenLayer)
{
    Mlp mlp({2, 32, 1}, 5);
    auto data = xorData(600, 6);
    TrainConfig cfg;
    cfg.epochs = 60;
    cfg.lr = 3e-3;
    auto stats = mlp.fit(data, cfg);
    EXPECT_GT(stats.train_accuracy, 0.9);
}

TEST(Mlp, SingleLayerCannotLearnXor)
{
    Mlp mlp({2, 1}, 7);
    auto data = xorData(600, 8);
    TrainConfig cfg;
    cfg.epochs = 40;
    auto stats = mlp.fit(data, cfg);
    EXPECT_LT(stats.train_accuracy, 0.7);
}

TEST(Mlp, ParamAndFlopCounts)
{
    Mlp mlp({12, 512, 1}, 9);
    EXPECT_EQ(mlp.paramCount(), 12u * 512 + 512 + 512 + 1);
    EXPECT_EQ(mlp.flopsPerInference(), 2u * (12 * 512 + 512));
    EXPECT_EQ(mlp.depth(), 2u);
    EXPECT_EQ(mlp.inputDim(), 12u);
}

TEST(Mlp, PredictIsSigmoidOfLogit)
{
    Mlp mlp({3, 8, 1}, 10);
    tensor::Vec x = {0.5f, -1.0f, 2.0f};
    EXPECT_NEAR(mlp.predict(x), tensor::sigmoid(mlp.forwardLogit(x)),
                1e-6f);
}

TEST(Mlp, AccuracyOnHeldOut)
{
    Mlp mlp({2, 16, 1}, 11);
    auto data = separable(600, 12);
    auto [train, test] = data.split(0.8);
    TrainConfig cfg;
    cfg.epochs = 30;
    mlp.fit(train, cfg);
    EXPECT_GT(mlp.accuracy(test), 0.92);
}

// accuracy() runs blocks of samples through the batched forward; each
// of its predictions must be predict()'s, over a ragged last block.
TEST(Mlp, AccuracyCountsPredictions)
{
    Mlp mlp({12, 64, 64, 1}, 14);
    const Dataset data = exitLike(173, 0xacc);
    TrainConfig cfg;
    cfg.epochs = 2;
    mlp.fit(data, cfg);
    for (float threshold : {0.2f, 0.5f, 0.8f}) {
        size_t correct = 0;
        for (size_t i = 0; i < data.size(); ++i) {
            const bool pred = mlp.predict(data.features(i)) > threshold;
            correct += pred == (data.label(i) > 0.5f) ? 1 : 0;
        }
        EXPECT_EQ(mlp.accuracy(data, threshold),
                  static_cast<double>(correct) /
                      static_cast<double>(data.size()))
            << threshold;
    }
}

// Pins the trained weights, final loss and train accuracy of fits that
// cover each training edge: a ragged last batch (173 = 5 * 32 + 13),
// a hidden-to-hidden backward, no hidden layer, batch 1 and batch 0
// (one step per epoch, over more samples than one block holds).
// Training never depends on the SIMD dispatch level, so one value
// holds at both.
TEST(Mlp, FitIsBitStable)
{
    struct Case
    {
        std::vector<size_t> dims;
        size_t batch;
        int n;
    };
    const Case cases[] = {
        {{12, 512, 1}, 32, 173}, {{12, 64, 64, 1}, 32, 173},
        {{12, 1}, 32, 173},      {{12, 16, 1}, 1, 61},
        {{12, 16, 1}, 0, 173},
    };
    testutil::Digest d;
    for (const Case &c : cases) {
        Mlp mlp(c.dims, 0x5eed + c.dims.size());
        TrainConfig cfg;
        cfg.epochs = 4;
        cfg.batch = c.batch;
        cfg.lr = 2e-3;
        const auto stats = mlp.fit(exitLike(c.n, 0xda7a), cfg);
        std::ostringstream os;
        mlp.save(os);
        const std::string bytes = os.str();
        d.bytes(bytes.data(), bytes.size());
        d.pod(stats.final_loss);
        d.pod(stats.train_accuracy);
    }
    EXPECT_EQ(d.value(), 0xba4bfa971eacd7a4ull);
}

TEST(Svm, LearnsSeparableData)
{
    LinearSvm svm(2);
    auto data = separable(400, 13);
    svm.fit(data);
    EXPECT_GT(svm.accuracy(data), 0.93);
}

TEST(Svm, FailsOnXor)
{
    LinearSvm svm(2);
    auto data = xorData(400, 14);
    svm.fit(data);
    EXPECT_LT(svm.accuracy(data), 0.72);
}

TEST(Svm, MarginSignMatchesPrediction)
{
    LinearSvm svm(2);
    auto data = separable(200, 15);
    svm.fit(data);
    tensor::Vec far_pos = {1.0f, 1.0f};
    tensor::Vec far_neg = {-1.0f, -1.0f};
    EXPECT_GT(svm.margin(far_pos), 0.0f);
    EXPECT_LT(svm.margin(far_neg), 0.0f);
}
