/**
 * @file
 * Hardware model tests: roofline pricing, batch-amortized op
 * classes, offload split, op logging, energy accounting, and the
 * Fig. 17 memory model.
 */

#include <gtest/gtest.h>

#include "hw/cost_model.hh"
#include "hw/memory_tracker.hh"
#include "model/config.hh"

using namespace specee;
using namespace specee::hw;

TEST(Hardware, PresetsHaveSaneNumbers)
{
    auto a100 = HardwareSpec::a100();
    auto pc = HardwareSpec::pc4060();
    EXPECT_GT(a100.mem_bw_gbs, pc.mem_bw_gbs);
    EXPECT_GT(a100.compute_tflops, pc.compute_tflops);
    EXPECT_GT(pc.host_bw_gbs, 0.0);
    EXPECT_EQ(a100.host_bw_gbs, 0.0);
    EXPECT_EQ(HardwareSpec::a100x4().n_devices, 4);
    EXPECT_EQ(HardwareSpec::byName("A100-80GB").name, "A100-80GB");
    EXPECT_DEATH(HardwareSpec::byName("TPU"), "unknown");
}

TEST(Hardware, EmbedIsBatchAmortized)
{
    // The embedding lookup is a weight-table read: one batched gather
    // per iteration, amortized like the other weight-bound classes.
    // Charging it per-request overcounted batched traffic.
    EXPECT_TRUE(isBatchAmortized(OpClass::Embed));
    EXPECT_TRUE(isBatchAmortized(OpClass::DecoderLayer));
    EXPECT_TRUE(isBatchAmortized(OpClass::LmHeadFull));
    EXPECT_TRUE(isBatchAmortized(OpClass::Draft));
    // A prefill chunk's weight stream is the same full-depth read a
    // decode iteration waits on — shared in a mixed batch — while
    // its chunk-length-scaled compute interferes privately.
    EXPECT_TRUE(isBatchAmortized(OpClass::PrefillWeights));
    EXPECT_FALSE(isBatchAmortized(OpClass::PrefillCompute));
    // Per-request traffic stays private.
    EXPECT_FALSE(isBatchAmortized(OpClass::KvRead));
    EXPECT_FALSE(isBatchAmortized(OpClass::Predictor));
    EXPECT_FALSE(isBatchAmortized(OpClass::LmHeadSliced));
}

TEST(CostModel, MemoryBoundOpPricedByBytes)
{
    CostModel cm(HardwareSpec::a100(), 1.0);
    OpLog log;
    // 2 GB at 2039 GB/s ~= 0.98 ms, far above the flop time.
    const double t = cm.account(log, OpClass::DecoderLayer,
                                /*flops=*/1e9, /*weight_bytes=*/2e9,
                                0.0, 1);
    EXPECT_NEAR(t, 2e9 / 2039e9 + 5e-6, 1e-5);
}

TEST(CostModel, ComputeBoundOpPricedByFlops)
{
    CostModel cm(HardwareSpec::a100(), 1.0);
    OpLog log;
    // Huge flops, tiny bytes.
    const double t =
        cm.account(log, OpClass::DecoderLayer, 3.12e14, 1e3, 0.0, 1);
    EXPECT_NEAR(t, 1.0 + 5e-6, 1e-3);
}

TEST(CostModel, LaunchOverheadDominatesTinyOps)
{
    CostModel cm(HardwareSpec::a100(), 1.0);
    OpLog log;
    // The exit predictor: ~7k params, 28 KB — launch-bound.
    const double t = cm.account(log, OpClass::Predictor, 14e3, 28e3,
                                0.0, 8);
    EXPECT_GT(t, 8 * 5e-6 * 0.99);
    EXPECT_LT(t, 8 * 5e-6 * 1.5);
}

TEST(CostModel, EfficiencyScalesTime)
{
    CostModel full(HardwareSpec::a100(), 1.0);
    CostModel third(HardwareSpec::a100(), 1.0 / 3.0);
    OpLog l1, l2;
    const double t1 =
        full.account(l1, OpClass::DecoderLayer, 0, 3e9, 0, 0);
    const double t2 =
        third.account(l2, OpClass::DecoderLayer, 0, 3e9, 0, 0);
    EXPECT_NEAR(t2, 3.0 * t1, 1e-6);
}

TEST(CostModel, OffloadRoutesWeightBytesToHost)
{
    CostModel cm(HardwareSpec::pc4060(), 1.0, 0.5);
    OpLog log;
    const double t =
        cm.account(log, OpClass::DecoderLayer, 0, 2e9, 0, 0);
    const double expect = 1e9 / 256e9 + 1e9 / 60e9;
    EXPECT_NEAR(t, expect, 1e-4);
    // Activations never go to the host path.
    OpLog log2;
    const double t_act =
        cm.account(log2, OpClass::KvRead, 0, 0, 2e9, 0);
    EXPECT_NEAR(t_act, 2e9 / 256e9, 1e-5);
}

TEST(CostModel, OffloadWithoutHostPathDies)
{
    CostModel cm(HardwareSpec::a100(), 1.0, 0.5);
    OpLog log;
    EXPECT_DEATH(cm.account(log, OpClass::DecoderLayer, 0, 1e9, 0, 0),
                 "host");
}

TEST(OpLog, AccumulatesAndMerges)
{
    CostModel cm(HardwareSpec::a100(), 1.0);
    OpLog a, b;
    cm.account(a, OpClass::DecoderLayer, 1e6, 1e6, 0, 1);
    cm.account(a, OpClass::DecoderLayer, 1e6, 1e6, 0, 1);
    cm.account(b, OpClass::Predictor, 1e3, 1e3, 0, 1);
    a.merge(b);
    EXPECT_EQ(a.totals(OpClass::DecoderLayer).count, 2);
    EXPECT_EQ(a.totals(OpClass::Predictor).count, 1);
    EXPECT_GT(a.grand().time_s, 0.0);
    a.clear();
    EXPECT_EQ(a.grand().count, 0);
}

TEST(OpLog, AveragePowerIsTimeWeighted)
{
    const auto spec = HardwareSpec::a100();
    CostModel cm(spec, 1.0);
    OpLog log;
    cm.account(log, OpClass::DecoderLayer, 0, 2.039e9, 0, 0); // 1 ms
    const double p_layer =
        spec.power_w[static_cast<int>(OpClass::DecoderLayer)];
    EXPECT_NEAR(log.avgPowerW(), p_layer, 1e-6);
    // Mixing in a low-power op lowers the average.
    cm.accountFixed(log, OpClass::Predictor, 1e-3);
    EXPECT_LT(log.avgPowerW(), p_layer);
}

TEST(CostModel, ProjectionAndHeadBackendsCompressTheirClasses)
{
    // AWQ pair: Q4 projections, fp16 head / embedding / draft.
    CostModel cm(HardwareSpec::a100(), 1.0, 1.0,
                 tensor::WeightBackend::Q4, tensor::WeightBackend::Fp32);
    for (int c = 0; c < kNumOpClasses; ++c) {
        const auto cls = static_cast<OpClass>(c);
        OpLog log;
        cm.account(log, cls, 0.0, 1.0e6, 0.0, 1);
        const bool projection = cls == OpClass::DecoderLayer ||
                                cls == OpClass::KvFill ||
                                cls == OpClass::PrefillWeights;
        EXPECT_DOUBLE_EQ(log.totals(cls).bytes,
                         projection ? 1.0e6 * 4.5 / 16.0 : 1.0e6)
            << opClassName(cls);
    }
}

TEST(Memory, WeightsMatchLlama7B)
{
    auto cfg = model::ModelConfig::llama2_7b();
    MemoryTracker mem(cfg, tensor::WeightBackend::Fp32, false, 0, 0);
    // Llama-2-7B fp16 ~= 13.5 GB.
    EXPECT_NEAR(mem.weightBytes() / 1e9, 13.5, 0.7);
    MemoryTracker q4(cfg, tensor::WeightBackend::Q4, false, 0, 0);
    EXPECT_NEAR(q4.weightBytes() / mem.weightBytes(), 4.5 / 16.0, 1e-6);
}

TEST(Memory, DraftModelMatchesPaperFig17)
{
    // §7.4.2: DLM adds ~0.9 GB (7B) and ~1.4 GB (13B).
    MemoryTracker m7(model::ModelConfig::llama2_7b(),
                     tensor::WeightBackend::Fp32, true, 0, 0);
    EXPECT_NEAR(m7.draftModelBytes() / 1e9, 0.93, 0.15);
    MemoryTracker m13(model::ModelConfig::llama2_13b(),
                      tensor::WeightBackend::Fp32, true, 0, 0);
    EXPECT_NEAR(m13.draftModelBytes() / 1e9, 1.3, 0.2);
}

TEST(Memory, KvGrowsLinearly)
{
    auto cfg = model::ModelConfig::llama2_7b();
    MemoryTracker mem(cfg, tensor::WeightBackend::Fp32, false, 0, 0);
    // 2 x 32 layers x 4096 x fp16 = 512 KB/token.
    EXPECT_NEAR(mem.kvBytes(1) / 1024.0, 512.0, 1.0);
    EXPECT_NEAR(mem.kvBytes(1000), 1000 * mem.kvBytes(1), 1.0);
}

TEST(Memory, PredictorsAreNegligible)
{
    auto cfg = model::ModelConfig::llama2_7b();
    MemoryTracker mem(cfg, tensor::WeightBackend::Fp32, true, 31,
                      12 * 512 + 512 + 513);
    EXPECT_LT(mem.predictorBytes(), 1.5e6);
    EXPECT_LT(mem.predictorBytes() / mem.draftModelBytes(), 0.01);
}
