/**
 * @file
 * Predictor training pipeline tests (§7.4.4): label collection,
 * per-layer dataset shapes, MLP/SVM training quality, and the
 * training-data-ratio behaviour behind Fig. 18.
 */

#include <gtest/gtest.h>

#include <thread>

#include "core/predictor_trainer.hh"
#include "model/draft_model.hh"
#include "oracle/profiles.hh"
#include "serve/server.hh"
#include "test_util.hh"

using namespace specee;

namespace {

struct Collected
{
    core::ProfileData data;
    std::vector<nn::Dataset> ada; ///< collectAdaInfer() on the same run
    model::ModelConfig cfg;
};

const Collected &
collected()
{
    static const Collected c = [] {
        Collected out{
            .data = {}, .ada = {}, .cfg = model::ModelConfig::tiny()};
        oracle::SyntheticCorpus corpus(out.cfg.sim.vocab, 0xc0de ^ 42);
        workload::WorkloadGen gen(corpus);
        workload::GenOptions gopts;
        gopts.n_instances = 6;
        gopts.gen_len = 36;
        gopts.seed = 0x7e57;
        auto w = gen.generate(oracle::profileByName("MT-Bench"), out.cfg,
                              gopts);
        model::TargetModel tm(out.cfg, {});
        model::DraftModel dlm(out.cfg, corpus, 0.9);
        out.data = core::PredictorTrainer::collect(w, tm, dlm, 0x5eed);
        out.ada = core::PredictorTrainer::collectAdaInfer(w, tm, dlm, 0x5eed);
        return out;
    }();
    return c;
}

void
digestDatasets(testutil::Digest &d, const std::vector<nn::Dataset> &sets)
{
    for (const auto &ds : sets) {
        d.pod(ds.size());
        for (size_t i = 0; i < ds.size(); ++i) {
            d.span(ds.features(i));
            d.pod(ds.label(i));
        }
    }
}

/** Digest of every value both collectors return. */
uint64_t
digestProfile(const core::ProfileData &data,
              const std::vector<nn::Dataset> &ada)
{
    testutil::Digest d;
    digestDatasets(d, data.specee);
    digestDatasets(d, ada);
    for (long h : data.oracle_exit_hist)
        d.pod(h);
    for (const auto &p : data.raee_probes)
        d.span(p);
    for (int e : data.raee_exits)
        d.pod(e);
    return d.value();
}

} // namespace

TEST(Trainer, CollectShapes)
{
    const auto &c = collected();
    const int n_exit = c.cfg.n_layers - 1;
    ASSERT_EQ(static_cast<int>(c.data.specee.size()), n_exit);
    ASSERT_EQ(static_cast<int>(c.ada.size()), n_exit);
    const size_t per_layer = c.data.specee.front().size();
    EXPECT_EQ(per_layer, 6u * 36u);
    for (const auto &d : c.data.specee) {
        EXPECT_EQ(d.size(), per_layer);
        EXPECT_EQ(d.dim(), 12u);
    }
    for (const auto &d : c.ada) {
        EXPECT_EQ(d.size(), per_layer);
        EXPECT_EQ(d.dim(), 3u);
    }
}

// Pins every collected value: profiling must produce the same data
// however its work is spread over threads.
TEST(Trainer, CollectIsBitStable)
{
    EXPECT_EQ(digestProfile(collected().data, collected().ada),
              testutil::pinned(0x1cd8341ac72a6c60ull,
                               0xa97fb94f5e9278e9ull));
}

// The same pin at llama2-7b dims (32 layers, hidden 192, vocab 4096),
// the shapes Pipeline profiles by default.
TEST(Trainer, CollectIsBitStableAt7bDims)
{
    const auto cfg = model::ModelConfig::llama2_7b();
    oracle::SyntheticCorpus corpus(cfg.sim.vocab, 0xc0de ^ 7);
    workload::WorkloadGen gen(corpus);
    workload::GenOptions gopts;
    gopts.n_instances = 2;
    gopts.gen_len = 8;
    gopts.seed = 0x7e57;
    const auto w =
        gen.generate(oracle::profileByName("MT-Bench"), cfg, gopts);
    model::TargetModel tm(cfg, {});
    model::DraftModel dlm(cfg, corpus, 0.9);
    const auto data = core::PredictorTrainer::collect(w, tm, dlm, 0x5eed);
    const auto ada =
        core::PredictorTrainer::collectAdaInfer(w, tm, dlm, 0x5eed);
    ASSERT_EQ(data.raee_exits.size(), 16u);
    EXPECT_EQ(digestProfile(data, ada),
              testutil::pinned(0x8aa392c49221f547ull, 0x356a86ef4682e8a8ull));
}

// Pins a trained bank's outputs on a fixed probe set and its report:
// layers may train in parallel, but every weight must come out equal.
TEST(Trainer, TrainIsBitStable)
{
    const auto &c = collected();
    core::ExitPredictor bank(c.cfg.n_layers - 1, 12, 64, 2, 1);
    core::TrainerOptions topts;
    topts.train.epochs = 5;
    const auto rep = core::PredictorTrainer::train(bank, c.data, topts);

    testutil::Digest d;
    d.pod(rep.mean_test_accuracy);
    d.pod(rep.mean_train_accuracy);
    d.pod(rep.samples_used);
    for (double a : rep.per_layer_test_accuracy)
        d.pod(a);
    Rng rng(0x9b0be);
    tensor::Vec probe(12);
    for (int i = 0; i < 32; ++i) {
        for (float &x : probe)
            x = static_cast<float>(rng.uniform());
        for (int l = 0; l < bank.nExitLayers(); ++l)
            d.pod(bank.mlp(l).predict(probe));
    }
    EXPECT_EQ(d.value(), testutil::pinned(0xf80e212e5349e0afull,
                                          0x8dd39ffbb3ff3447ull));
}

TEST(Trainer, LabelsBecomeMorePositiveWithDepth)
{
    const auto &c = collected();
    // Early layers are mostly pre-convergence (label 0); late layers
    // mostly post-convergence (label 1).
    const double first = c.data.specee.front().positiveRate();
    const double last = c.data.specee.back().positiveRate();
    EXPECT_LT(first, 0.35);
    EXPECT_GT(last, 0.6);
    EXPECT_GT(last - first, 0.3);
}

TEST(Trainer, OracleExitHistogramMatchesSampleCount)
{
    const auto &c = collected();
    long total = 0;
    for (long h : c.data.oracle_exit_hist)
        total += h;
    // Hard tokens never reach label-true before the last layer, so
    // the histogram holds slightly fewer entries than tokens.
    EXPECT_GT(total, 0);
    EXPECT_LE(total, static_cast<long>(c.data.specee.front().size()));
}

TEST(Trainer, MlpBankLearnsExitDecision)
{
    const auto &c = collected();
    core::ExitPredictor bank(c.cfg.n_layers - 1, 12, 64, 2, 1);
    core::TrainerOptions topts;
    topts.train.epochs = 25;
    auto rep = core::PredictorTrainer::train(bank, c.data, topts);
    // Fig. 8 reports ~93% predictor accuracy; the tiny model should
    // comfortably exceed chance and approach that band.
    EXPECT_GT(rep.mean_test_accuracy, 0.85);
    EXPECT_GT(rep.mean_train_accuracy, 0.85);
    EXPECT_EQ(rep.per_layer_test_accuracy.size(),
              static_cast<size_t>(c.cfg.n_layers - 1));
}

TEST(Trainer, SvmBankLearnsButIsWorseCalibrated)
{
    const auto &c = collected();
    std::vector<nn::LinearSvm> bank;
    core::TrainerOptions topts;
    auto rep = core::PredictorTrainer::trainAdaInfer(bank, c.ada, topts);
    ASSERT_EQ(static_cast<int>(bank.size()), c.cfg.n_layers - 1);
    EXPECT_GT(rep.mean_test_accuracy, 0.6);
}

TEST(Trainer, DataRatioDegradesGracefully)
{
    const auto &c = collected();
    core::TrainerOptions full, tiny_ratio;
    full.train.epochs = 20;
    tiny_ratio.train.epochs = 20;
    tiny_ratio.data_ratio = 0.05;

    core::ExitPredictor bank_full(c.cfg.n_layers - 1, 12, 64, 2, 1);
    core::ExitPredictor bank_tiny(c.cfg.n_layers - 1, 12, 64, 2, 1);
    auto rep_full = core::PredictorTrainer::train(bank_full, c.data, full);
    auto rep_tiny =
        core::PredictorTrainer::train(bank_tiny, c.data, tiny_ratio);
    EXPECT_LT(rep_tiny.samples_used, rep_full.samples_used);
    // Fig. 18: a few percent of the data already performs well.
    EXPECT_GT(rep_tiny.mean_test_accuracy, 0.6);
}

TEST(Trainer, PipelineBundlesEverything)
{
    const auto &pipe = testutil::tinyPipeline();
    EXPECT_GT(pipe.trainReport().mean_test_accuracy, 0.8);
    EXPECT_FALSE(pipe.offlineHotLayers().empty());
    EXPECT_FALSE(pipe.adaInferBank().empty());
    EXPECT_EQ(pipe.predictors().nExitLayers(),
              pipe.modelConfig().n_layers - 1);
}

// A SpecEE-only node never pays for the AdaInfer baseline. The first
// adaInferBank() call trains it, once however many threads ask, and
// its SVM weights are pinned: the replayed profiling decode must give
// the bank an eager construction would train.
TEST(Trainer, PipelineTrainsAdaInferBankOnDemand)
{
    const engines::Pipeline pipe(testutil::tinyPipelineOptions());
    {
        serve::ServerOptions so;
        so.engine = engines::EngineConfig::huggingFace().withSpecEE();
        const serve::Server server(pipe, so);
    }
    EXPECT_EQ(pipe.phaseTimes().adainfer_s, 0.0);

    const engines::AdaInferBank *banks[2] = {nullptr, nullptr};
    {
        std::jthread a([&] { banks[0] = &pipe.adaInferBank(); });
        std::jthread b([&] { banks[1] = &pipe.adaInferBank(); });
    }
    EXPECT_EQ(banks[0], banks[1]);
    EXPECT_GT(pipe.phaseTimes().adainfer_s, 0.0);

    testutil::Digest d;
    ASSERT_EQ(banks[0]->nLayers(), pipe.modelConfig().n_layers - 1);
    for (const auto &svm : banks[0]->svms) {
        d.span(svm.weights());
        d.pod(svm.bias());
    }
    EXPECT_EQ(d.value(), testutil::pinned(0xa6bd20850894902aull,
                                          0xcbba33bc122faf4cull));
}
