/**
 * @file
 * Cost-accounting invariants: the modeled op log must be consistent
 * with the functional run (counts, proportionality, composition).
 * These tests pin the contract between the engine and hw::CostModel
 * that every benchmark result rests on.
 */

#include <gtest/gtest.h>

#include "engines/decode_session.hh"
#include "test_util.hh"

using namespace specee;
using engines::EngineConfig;

namespace {

const workload::Workload &
wl()
{
    static const workload::Workload w = testutil::tinyPipeline().makeWorkload(
        "Alpaca", testutil::smallGen(3, 24, 909));
    return w;
}

engines::RunResult
runCfg(const EngineConfig &cfg,
       const hw::HardwareSpec &spec = hw::HardwareSpec::a100())
{
    auto engine = testutil::tinyPipeline().makeEngine(cfg, spec);
    return engine->run(wl(), 13);
}

} // namespace

TEST(CostAccounting, DenseChargesOneHeadAndEmbedPerToken)
{
    auto r = runCfg(EngineConfig::huggingFace());
    const auto &log = r.stats.oplog;
    EXPECT_EQ(log.totals(hw::OpClass::LmHeadFull).count, r.stats.tokens);
    EXPECT_EQ(log.totals(hw::OpClass::Embed).count, r.stats.tokens);
    EXPECT_EQ(log.totals(hw::OpClass::Draft).count, 0);
    EXPECT_EQ(log.totals(hw::OpClass::KvFill).count, 0);
    EXPECT_EQ(log.totals(hw::OpClass::Predictor).count, 0);
}

TEST(CostAccounting, SpecEEChargesOneDraftPerToken)
{
    auto r = runCfg(EngineConfig::huggingFace().withSpecEE());
    const auto &log = r.stats.oplog;
    EXPECT_EQ(log.totals(hw::OpClass::Draft).count, r.stats.tokens);
    // One kv-fill charge per exited token.
    EXPECT_EQ(log.totals(hw::OpClass::KvFill).count, r.stats.exits);
    // Verification heads: one per verify call, plus one decode head
    // per non-exited token.
    EXPECT_EQ(log.totals(hw::OpClass::LmHeadFull).count,
              r.stats.verify_calls +
                  (r.stats.tokens - r.stats.exits));
    // Sliced-head and predictor charges match invocations.
    EXPECT_EQ(log.totals(hw::OpClass::LmHeadSliced).count,
              r.stats.predictor_invocations);
    EXPECT_EQ(log.totals(hw::OpClass::Predictor).count,
              r.stats.predictor_invocations);
}

TEST(CostAccounting, LayerTimeTracksAverageLayers)
{
    auto dense = runCfg(EngineConfig::huggingFace());
    auto ee = runCfg(EngineConfig::huggingFace().withSpecEE());
    const double dense_layer_t =
        dense.stats.oplog.totals(hw::OpClass::DecoderLayer).time_s;
    const double ee_layer_t =
        ee.stats.oplog.totals(hw::OpClass::DecoderLayer).time_s;
    const double layer_ratio =
        ee.stats.avg_forward_layers / dense.stats.avg_forward_layers;
    // SpecEE kernels run at slightly higher calibrated efficiency, so
    // allow that factor plus launch-overhead noise.
    EXPECT_NEAR(ee_layer_t / dense_layer_t, layer_ratio / 1.06, 0.06);
}

TEST(CostAccounting, QuantizationCutsWeightBytes)
{
    auto fp16 = runCfg(EngineConfig::huggingFace());
    auto q4 = runCfg(EngineConfig::awq());
    const double b_fp16 =
        fp16.stats.oplog.totals(hw::OpClass::DecoderLayer).bytes;
    const double b_q4 =
        q4.stats.oplog.totals(hw::OpClass::DecoderLayer).bytes;
    // Q4 group quantization: 4.5/16 of fp16 weight traffic (plus the
    // small activation component).
    EXPECT_LT(b_q4 / b_fp16, 0.35);
    EXPECT_GT(b_q4 / b_fp16, 0.25);
}

TEST(CostAccounting, SparseFfnCutsLayerBytes)
{
    auto dense = runCfg(EngineConfig::huggingFace());
    EngineConfig sparse_cfg = EngineConfig::huggingFace();
    sparse_cfg.sparse_ffn = true;
    sparse_cfg.ffn_active_frac = 0.3f;
    auto sparse = runCfg(sparse_cfg);
    const double b_dense =
        dense.stats.oplog.totals(hw::OpClass::DecoderLayer).bytes;
    const double b_sparse =
        sparse.stats.oplog.totals(hw::OpClass::DecoderLayer).bytes;
    // FFN is ~2/3 of layer weights; keeping 30% of it leaves
    // ~1/3 + 0.3*2/3 ~= 53%.
    EXPECT_LT(b_sparse / b_dense, 0.65);
    EXPECT_GT(b_sparse / b_dense, 0.40);
}

TEST(CostAccounting, TensorParallelSyncChargedPerLayer)
{
    auto r = runCfg(EngineConfig::huggingFace(),
                    hw::HardwareSpec::a100x4());
    const auto &sync = r.stats.oplog.totals(hw::OpClass::Sync);
    EXPECT_GT(sync.time_s, 0.0);
    // One sync charge per (token, layer-batch) decode call.
    EXPECT_EQ(sync.count, r.stats.tokens);
}

TEST(CostAccounting, OverheadChargedPerStep)
{
    auto r = runCfg(EngineConfig::huggingFace());
    const auto &oh = r.stats.oplog.totals(hw::OpClass::Overhead);
    EXPECT_EQ(oh.count, r.stats.tokens);
    EXPECT_NEAR(oh.time_s,
                r.stats.tokens *
                    EngineConfig::huggingFace().fixed_overhead_s,
                1e-9);
}

TEST(CostAccounting, SpeculativePassesChargeBatchedLayers)
{
    auto r = runCfg(EngineConfig::eagle());
    const auto &log = r.stats.oplog;
    // Layer charges: one per pass plus one for the first token.
    EXPECT_EQ(log.totals(hw::OpClass::DecoderLayer).count / 1,
              log.totals(hw::OpClass::DecoderLayer).count);
    EXPECT_GT(r.stats.passes, 0);
    // Throughput accounting must cover all committed tokens.
    EXPECT_EQ(r.stats.tokens,
              static_cast<long>(wl().instances.size() *
                                wl().instances[0].steps.size()));
}

TEST(CostAccounting, EnergyIsTimeTimesPower)
{
    auto r = runCfg(EngineConfig::huggingFace());
    const auto &layer =
        r.stats.oplog.totals(hw::OpClass::DecoderLayer);
    const auto spec = hw::HardwareSpec::a100();
    EXPECT_NEAR(layer.energy_j,
                layer.time_s *
                    spec.power_w[static_cast<int>(
                        hw::OpClass::DecoderLayer)],
                1e-9);
}

TEST(CostAccounting, PlatformOrderingHolds)
{
    // Same engine, same workload: the A100 must beat the 4090, which
    // must beat the PC for a memory-bound dense model.
    auto a100 = runCfg(EngineConfig::huggingFace(),
                       hw::HardwareSpec::a100());
    auto r4090 = runCfg(EngineConfig::huggingFace(),
                        hw::HardwareSpec::rtx4090());
    EXPECT_GT(a100.stats.tokens_per_s, r4090.stats.tokens_per_s);

    auto pc = runCfg(EngineConfig::llamaCpp(),
                     hw::HardwareSpec::pc4060());
    EXPECT_GT(r4090.stats.tokens_per_s, pc.stats.tokens_per_s);
}

TEST(CostAccounting, AwqIsQ4ProjectionsWithAnFp16Head)
{
    // One session per weight format, with chunked prefill so the
    // PrefillWeights stream is charged too. The predictors never fire
    // (a bar above any score), so every format decodes the same
    // trajectory and the charges differ only in their compression.
    EngineConfig awq = EngineConfig::awq().withSpecEE();
    awq.exit_threshold = 2.0f;
    const auto oplogOf = [](const EngineConfig &cfg) {
        auto engine = testutil::tinyPipeline().makeEngine(
            cfg, hw::HardwareSpec::a100());
        auto sess = engine->makeSession(wl().slice(0), 13);
        while (!sess->prefillDone())
            sess->prefillChunk(8);
        while (sess->step()) {
        }
        return sess->finalize().stats.oplog;
    };
    const hw::OpLog a = oplogOf(awq);
    const hw::OpLog q4 =
        oplogOf(awq.withWeightBackend(tensor::WeightBackend::Q4));
    const hw::OpLog fp16 =
        oplogOf(awq.withWeightBackend(tensor::WeightBackend::Fp32));
    for (int c = 0; c < hw::kNumOpClasses; ++c) {
        const auto cls = static_cast<hw::OpClass>(c);
        const bool projection = cls == hw::OpClass::DecoderLayer ||
                                cls == hw::OpClass::KvFill ||
                                cls == hw::OpClass::PrefillWeights;
        const double want = (projection ? q4 : fp16).totals(cls).bytes;
        EXPECT_NEAR(a.totals(cls).bytes, want, 1e-12 * want)
            << hw::opClassName(cls);
    }
    // The comparison covers every weight-bound class but KvFill,
    // which only exits charge; test_hw pins its compression.
    for (auto cls : {hw::OpClass::DecoderLayer, hw::OpClass::PrefillWeights,
                     hw::OpClass::LmHeadFull, hw::OpClass::Embed,
                     hw::OpClass::Draft}) {
        EXPECT_GT(a.totals(cls).bytes, 0.0) << hw::opClassName(cls);
        EXPECT_LT(q4.totals(cls).bytes, fp16.totals(cls).bytes)
            << hw::opClassName(cls);
    }
}
