/**
 * @file
 * Parameterized engine property sweeps on the tiny model: the exit
 * threshold trades layers for fidelity monotonically, window/radius
 * control the active-predictor budget, verification semantics, and
 * failure injection (untrained predictors must not corrupt output).
 */

#include <gtest/gtest.h>

#include "test_util.hh"
#include "workload/evaluator.hh"

using namespace specee;
using engines::EngineConfig;

namespace {

const workload::Workload &
wl()
{
    static const workload::Workload w = testutil::tinyPipeline().makeWorkload(
        "QA", testutil::smallGen(4, 28, 5151));
    return w;
}

engines::RunResult
runCfg(const EngineConfig &cfg)
{
    auto engine = testutil::tinyPipeline().makeEngine(
        cfg, hw::HardwareSpec::a100());
    return engine->run(wl(), 77);
}

} // namespace

class ThresholdSweep : public ::testing::TestWithParam<float>
{
};

TEST_P(ThresholdSweep, HigherThresholdMeansLaterExits)
{
    auto cfg = EngineConfig::huggingFace().withSpecEE();
    cfg.exit_threshold = GetParam();
    auto r = runCfg(cfg);
    auto ev = workload::Evaluator::evaluate(
        wl(), r.emissions, testutil::tinyPipeline().corpus());
    // Layers stay within the model range and fidelity stays high —
    // verification backstops even aggressive thresholds.
    EXPECT_GE(r.stats.avg_forward_layers, 1.0);
    EXPECT_LE(r.stats.avg_forward_layers, 8.0);
    EXPECT_GT(ev.token_match_rate, 0.9);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         ::testing::Values(0.1f, 0.3f, 0.5f, 0.7f,
                                           0.9f));

TEST(ThresholdOrdering, LayersMonotoneInThreshold)
{
    double prev_layers = 0.0;
    for (float th : {0.1f, 0.5f, 0.9f}) {
        auto cfg = EngineConfig::huggingFace().withSpecEE();
        cfg.exit_threshold = th;
        auto r = runCfg(cfg);
        EXPECT_GE(r.stats.avg_forward_layers, prev_layers - 0.3)
            << "threshold " << th;
        prev_layers = r.stats.avg_forward_layers;
    }
}

class WindowSweep
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(WindowSweep, ActivePredictorsScaleWithWindowAndRadius)
{
    const auto [window, radius] = GetParam();
    auto cfg = EngineConfig::huggingFace().withSpecEE();
    cfg.offline_sched = false; // isolate the online component
    cfg.online_window = window;
    cfg.online_radius = radius;
    auto r = runCfg(cfg);
    // Upper bound: window distinct exits, each activating 2r+1 layers.
    EXPECT_LE(r.stats.avg_active_predictors,
              static_cast<double>(window * (2 * radius + 1)) + 1.0);
    EXPECT_GT(r.stats.avg_active_predictors, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Windows, WindowSweep,
    ::testing::Values(std::pair{1, 1}, std::pair{3, 1}, std::pair{5, 2},
                      std::pair{8, 2}, std::pair{5, 0}));

TEST(FailureInjection, UntrainedPredictorsAreHarmless)
{
    // Fresh (untrained) predictors fire arbitrarily; verification must
    // keep emissions near-dense and never crash.
    auto &pipe = testutil::tinyPipeline();
    core::ExitPredictor untrained(pipe.modelConfig().n_layers - 1, 12,
                                  64, 2, 0xbad);
    auto engine = pipe.makeEngine(
        EngineConfig::huggingFace().withSpecEE(),
        hw::HardwareSpec::a100());
    engine->setPredictors(&untrained);
    auto r = engine->run(wl(), 3);
    auto ev = workload::Evaluator::evaluate(wl(), r.emissions,
                                            pipe.corpus());
    EXPECT_GT(ev.token_match_rate, 0.85);
    EXPECT_EQ(r.emissions.size(), wl().instances.size());
}

TEST(FailureInjection, ZeroHitDraftDisablesExits)
{
    auto cfg = EngineConfig::huggingFace().withSpecEE();
    cfg.draft_hit_override = 0.0;
    auto r = runCfg(cfg);
    // The true token is never in the speculative set, so verification
    // rejects every exit attempt that matters; emissions stay correct.
    auto ev = workload::Evaluator::evaluate(
        wl(), r.emissions, testutil::tinyPipeline().corpus());
    EXPECT_GT(ev.token_match_rate, 0.9);
    // And almost no exits happen (only distractor-collision noise).
    EXPECT_LT(static_cast<double>(r.stats.exits) /
                  static_cast<double>(r.stats.tokens),
              0.2);
}

TEST(FailureInjection, PerfectDraftMaximizesExits)
{
    auto low = EngineConfig::huggingFace().withSpecEE();
    low.draft_hit_override = 0.5;
    auto high = EngineConfig::huggingFace().withSpecEE();
    high.draft_hit_override = 1.0;
    auto r_low = runCfg(low);
    auto r_high = runCfg(high);
    EXPECT_GT(r_high.stats.exits, r_low.stats.exits);
    EXPECT_LT(r_high.stats.avg_forward_layers,
              r_low.stats.avg_forward_layers);
}

class TreeShapeSweep
    : public ::testing::TestWithParam<std::vector<int>>
{
};

TEST_P(TreeShapeSweep, CommitRateGrowsWithDepth)
{
    auto cfg = EngineConfig::eagle();
    cfg.tree.widths = GetParam();
    auto r = runCfg(cfg);
    EXPECT_GE(r.stats.avg_commit_per_pass, 1.0);
    EXPECT_LE(r.stats.avg_commit_per_pass,
              1.0 + static_cast<double>(GetParam().size()));
    // Emissions always match the scripted steps count.
    for (size_t i = 0; i < wl().instances.size(); ++i) {
        EXPECT_EQ(r.emissions[i].tokens.size(),
                  wl().instances[i].steps.size());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeShapeSweep,
    ::testing::Values(std::vector<int>{2}, std::vector<int>{4},
                      std::vector<int>{4, 2}, std::vector<int>{4, 2, 2},
                      std::vector<int>{3, 3, 3, 3}));
