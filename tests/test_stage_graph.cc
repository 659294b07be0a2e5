/**
 * @file
 * Stage-graph and TP/PP sharded-engine tests.
 *
 * Pins the contracts the sharding refactor rests on: the StageGraph
 * partition is a contiguous near-even cover of the decoder; the
 * degenerate tp = 1, pp = 1 configuration is bit-identical to the
 * monolithic engine (emissions AND per-class modeled costs); sharded
 * engines change pricing but never emissions; TP strictly speeds up
 * the weight-bound classes while paying all-reduce traffic; early
 * exits cross fewer pipeline boundaries; the MemoryTracker's stage
 * partition conserves the deployment and shows a 70B-class model
 * overflowing one A100 but fitting a tp2 x pp2 fleet; the
 * scheduler's stage-split pricing is never cheaper than the legacy
 * whole-model max (and identical at pp = 1); pipeline backfill only
 * ever adds grants on sharded fleets; and per-consumer admission
 * backpressure caps concurrent decodes without losing requests.
 */

#include <gtest/gtest.h>

#include <memory>

#include "hw/memory_tracker.hh"
#include "model/stage_graph.hh"
#include "serve/server.hh"
#include "test_util.hh"

using namespace specee;

namespace {

engines::RunResult
runOnA100(const engines::EngineConfig &cfg, uint64_t seed = 7)
{
    const auto &pipe = testutil::tinyPipeline();
    auto eng = pipe.makeEngine(cfg, hw::HardwareSpec::a100());
    const auto w = pipe.makeWorkload("MT-Bench", testutil::smallGen(1, 24),
                                     cfg.q4Calibrated());
    return eng->runOne(w, 0, seed);
}

std::vector<serve::Request>
flatStream(int n, int gen_len, int prompt_len = 0)
{
    serve::StreamOptions so;
    so.n_requests = n;
    so.gen_len = gen_len;
    so.prompt_len = prompt_len;
    so.rate_rps = 0.0; // all arrive at t = 0: admission decisions do
                       // not depend on the priced clock, so runs that
                       // differ only in pricing share one trajectory
    so.seed = 0x57a6e;
    return serve::synthesizeStream(so);
}

serve::ServeReport
serveStream(const serve::ServerOptions &opts,
            const std::vector<serve::Request> &stream)
{
    serve::Server server(testutil::tinyPipeline(), opts);
    server.submit(stream);
    return server.drain();
}

} // namespace

// --- StageGraph arithmetic -------------------------------------------------

TEST(StageGraph, PartitionCoversDecoderNearEvenly)
{
    for (int L = 1; L <= 16; ++L) {
        for (int pp = 1; pp <= L; ++pp) {
            const model::StageGraph g(L, pp);
            ASSERT_EQ(g.nStages(), pp);
            ASSERT_EQ(g.nLayers(), L);
            int covered = 0;
            for (int s = 0; s < pp; ++s) {
                const auto &r = g.stage(s);
                EXPECT_EQ(r.first_layer, covered);
                EXPECT_GE(r.n_layers, 1);
                // Near-even, remainder to the front: sizes differ by
                // at most one and never grow toward the tail.
                EXPECT_LE(r.n_layers, L / pp + 1);
                EXPECT_GE(r.n_layers, L / pp);
                if (s > 0) {
                    EXPECT_LE(r.n_layers, g.stage(s - 1).n_layers);
                }
                for (int l = r.first_layer; l < r.endLayer(); ++l)
                    EXPECT_EQ(g.stageOfLayer(l), s);
                covered = r.endLayer();
            }
            EXPECT_EQ(covered, L);
        }
    }
}

TEST(StageGraph, DepthMapsToOccupiedStagesAndHandoffs)
{
    const model::StageGraph g(8, 4); // stages of 2 layers each
    EXPECT_EQ(g.stagesForDepth(0), 0);
    EXPECT_EQ(g.stagesForDepth(1), 1);
    EXPECT_EQ(g.stagesForDepth(2), 1);
    EXPECT_EQ(g.stagesForDepth(3), 2);
    EXPECT_EQ(g.stagesForDepth(8), 4);
    EXPECT_EQ(g.handoffs(0), 0);
    EXPECT_EQ(g.handoffs(2), 0); // confined to stage 0
    EXPECT_EQ(g.handoffs(5), 2);
    EXPECT_EQ(g.handoffs(8), 3);
    // Monotone: deeper steps never occupy fewer stages.
    for (int d = 1; d <= 8; ++d)
        EXPECT_GE(g.stagesForDepth(d), g.stagesForDepth(d - 1));
    // Overlap apportioning: stage 1 hosts layers [2, 4).
    EXPECT_EQ(g.overlapLayers(1, 0, 8), 2);
    EXPECT_EQ(g.overlapLayers(1, 3, 8), 1);
    EXPECT_EQ(g.overlapLayers(1, 4, 8), 0);

    const model::StageGraph mono(8, 1);
    EXPECT_EQ(mono.nStages(), 1);
    EXPECT_EQ(mono.handoffs(8), 0);
    EXPECT_EQ(mono.stagesForDepth(3), 1);
}

// --- engine-level sharding -------------------------------------------------

TEST(ShardedEngine, DegenerateShardingIsBitIdentical)
{
    const auto base = engines::EngineConfig::huggingFace().withSpecEE();
    const auto degen = base.withSharding(1, 1);
    EXPECT_EQ(degen.name, base.name); // no suffix on the no-op

    const auto a = runOnA100(base);
    const auto b = runOnA100(degen);
    ASSERT_EQ(a.emissions.size(), b.emissions.size());
    EXPECT_EQ(a.emissions[0].tokens, b.emissions[0].tokens);
    EXPECT_EQ(a.emissions[0].exit_layers, b.emissions[0].exit_layers);
    EXPECT_DOUBLE_EQ(a.stats.modeled_time_s, b.stats.modeled_time_s);
    for (int c = 0; c < hw::kNumOpClasses; ++c) {
        const auto &ta = a.stats.oplog.totals(static_cast<hw::OpClass>(c));
        const auto &tb = b.stats.oplog.totals(static_cast<hw::OpClass>(c));
        EXPECT_DOUBLE_EQ(ta.time_s, tb.time_s);
        EXPECT_DOUBLE_EQ(ta.energy_j, tb.energy_j);
        EXPECT_DOUBLE_EQ(ta.flops, tb.flops);
        EXPECT_DOUBLE_EQ(ta.bytes, tb.bytes);
        EXPECT_EQ(ta.count, tb.count);
    }
    EXPECT_EQ(
        a.stats.oplog.totals(hw::OpClass::TpAllReduce).count, 0);
    EXPECT_EQ(a.stats.oplog.totals(hw::OpClass::PpHandoff).count, 0);
}

TEST(ShardedEngine, ShardingChangesPricingNeverEmissions)
{
    const auto base = engines::EngineConfig::huggingFace().withSpecEE();
    const auto ref = runOnA100(base);
    const int combos[][2] = {{1, 2}, {2, 1}, {2, 2}, {1, 4}};
    for (const auto &c : combos) {
        const auto sharded = base.withSharding(c[0], c[1]);
        const auto r = runOnA100(sharded);
        // Functional results are a pure function of (workload, seed):
        // the fleet geometry only re-prices them.
        EXPECT_EQ(r.emissions[0].tokens, ref.emissions[0].tokens)
            << sharded.name;
        EXPECT_EQ(r.emissions[0].exit_layers,
                  ref.emissions[0].exit_layers)
            << sharded.name;
        const auto &ar = r.stats.oplog.totals(hw::OpClass::TpAllReduce);
        const auto &ho = r.stats.oplog.totals(hw::OpClass::PpHandoff);
        EXPECT_EQ(ar.count > 0, c[0] > 1) << sharded.name;
        EXPECT_EQ(ho.count > 0, c[1] > 1) << sharded.name;
    }
}

TEST(ShardedEngine, TpAcceleratesWeightBoundClassesAndPaysAllReduce)
{
    const auto base = engines::EngineConfig::huggingFace().withSpecEE();
    const auto one = runOnA100(base);
    const auto two = runOnA100(base.withSharding(2, 1));
    const auto &l1 = one.stats.oplog.totals(hw::OpClass::DecoderLayer);
    const auto &l2 = two.stats.oplog.totals(hw::OpClass::DecoderLayer);
    // Same traffic, double the aggregate bandwidth / compute.
    EXPECT_DOUBLE_EQ(l1.bytes, l2.bytes);
    EXPECT_LT(l2.time_s, l1.time_s);
    // Two boards drawing together: no energy discount from TP, and
    // the all-reduce traffic is priced on top.
    EXPECT_GE(two.stats.oplog.grand().energy_j,
              one.stats.oplog.grand().energy_j);
    EXPECT_GT(two.stats.oplog.totals(hw::OpClass::TpAllReduce).time_s,
              0.0);
}

TEST(ShardedEngine, EarlyExitCrossesFewerStageBoundaries)
{
    const auto hf = engines::EngineConfig::huggingFace();
    const auto ee = hf.withSpecEE();
    const auto full = runOnA100(hf.withSharding(1, 4));
    const auto exiting = runOnA100(ee.withSharding(1, 4));
    ASSERT_EQ(full.emissions[0].tokens.size(),
              exiting.emissions[0].tokens.size());
    // The tiny pipeline's SpecEE run exits early (its speedup tests
    // depend on it); every exited token skips its tail handoffs.
    ASSERT_LT(exiting.stats.avg_forward_layers,
              static_cast<double>(full.stats.avg_forward_layers));
    const double full_per_tok =
        full.stats.oplog.totals(hw::OpClass::PpHandoff).bytes /
        static_cast<double>(full.emissions[0].tokens.size());
    const double ee_per_tok =
        exiting.stats.oplog.totals(hw::OpClass::PpHandoff).bytes /
        static_cast<double>(exiting.emissions[0].tokens.size());
    EXPECT_LT(ee_per_tok, full_per_tok);
}

// --- per-device memory -----------------------------------------------------

TEST(StageMemory, StagePartitionConservesDeployment)
{
    for (const auto &cfg :
         {model::ModelConfig::tiny(), model::ModelConfig::llama2_70b()}) {
        const hw::MemoryTracker mem(cfg, tensor::WeightBackend::Fp32,
                                    /*with_draft_model=*/true,
                                    /*n_predictors=*/cfg.n_layers,
                                    /*predictor_params=*/5200);
        for (int pp : {1, 2, 4}) {
            const model::StageGraph g(cfg.n_layers, pp);
            double sum = 0.0;
            for (int s = 0; s < g.nStages(); ++s)
                sum += mem.stageWeightBytes(g, s);
            const double whole = mem.weightBytes() +
                                 mem.draftModelBytes() +
                                 mem.predictorBytes();
            EXPECT_NEAR(sum, whole, 1e-6 * whole)
                << cfg.name << " pp=" << pp;
        }
    }
}

TEST(StageMemory, SeventyBOverflowsOneDeviceButFitsTp2Pp2)
{
    const auto cfg = model::ModelConfig::llama2_70b();
    const hw::MemoryTracker mem(cfg, tensor::WeightBackend::Fp32,
                                /*with_draft_model=*/true,
                                /*n_predictors=*/cfg.n_layers,
                                /*predictor_params=*/5200);
    const double vram_gb = hw::HardwareSpec::a100().vram_gb;
    const long fleet_tokens = 8192; // a modest serving working set
    const int sessions = 4;

    const model::StageGraph mono(cfg.n_layers, 1);
    EXPECT_GT(hw::MemoryTracker::toGiB(
                  mem.maxDeviceBytes(mono, 1, fleet_tokens, sessions)),
              vram_gb);

    const model::StageGraph pp2(cfg.n_layers, 2);
    EXPECT_LT(hw::MemoryTracker::toGiB(
                  mem.maxDeviceBytes(pp2, 2, fleet_tokens, sessions)),
              vram_gb);
}

// --- fleet-level stage pricing, backfill, backpressure ---------------------

TEST(ShardedFleet, StagePricingKeepsEmissionsAndBoundsOccupancy)
{
    serve::ServerOptions opts;
    opts.engine = engines::EngineConfig::huggingFace().withSpecEE();
    opts.spec = hw::HardwareSpec::a100();
    opts.workers = 1;
    opts.sched.max_batch = 4;
    const auto stream = flatStream(6, 16);

    auto sharded = opts;
    sharded.engine = opts.engine.withSharding(1, 4);
    const auto rs = serveStream(sharded, stream);
    const auto r1 = serveStream(opts, stream);

    // Same trajectory (all requests arrive at t = 0, no budget):
    // stage-split pricing moves only the clock, never what decodes.
    EXPECT_EQ(rs.fleet.tokens, r1.fleet.tokens);
    ASSERT_EQ(rs.outcomes.size(), r1.outcomes.size());
    for (size_t i = 0; i < rs.outcomes.size(); ++i) {
        EXPECT_EQ(rs.outcomes[i].result.emissions[0].tokens,
                  r1.outcomes[i].result.emissions[0].tokens);
    }
    EXPECT_EQ(rs.fleet.n_stages, 4);
    EXPECT_LE(rs.fleet.peak_stage_occupancy, 4);
    EXPECT_GT(rs.fleet.pipeline_utilization, 0.0);
    EXPECT_LE(rs.fleet.pipeline_utilization, 1.0);
}

TEST(ShardedFleet, StageBackfillIsInertAtPpOne)
{
    serve::ServerOptions opts;
    opts.engine = engines::EngineConfig::huggingFace().withSpecEE();
    opts.spec = hw::HardwareSpec::a100();
    opts.workers = 1;
    opts.sched.max_batch = 4;
    const auto stream = flatStream(5, 12);

    auto on = opts;
    on.sched.stage_backfill = true;
    auto off = opts;
    off.sched.stage_backfill = false;
    const auto ron = serveStream(on, stream);
    const auto roff = serveStream(off, stream);
    EXPECT_DOUBLE_EQ(ron.fleet.makespan_s, roff.fleet.makespan_s);
    EXPECT_DOUBLE_EQ(ron.fleet.energy_j, roff.fleet.energy_j);
    EXPECT_EQ(ron.fleet.tokens, roff.fleet.tokens);
    EXPECT_EQ(ron.fleet.n_stages, 1);
    // Unsharded fleets run every stage (the only one) every
    // iteration and never backfill.
    EXPECT_DOUBLE_EQ(ron.fleet.pipeline_utilization, 1.0);
    EXPECT_EQ(ron.fleet.backfill_grants, 0);
    EXPECT_EQ(ron.fleet.backfill_tokens, 0);
}

TEST(ShardedFleet, DeterministicAcrossWorkerCounts)
{
    serve::ServerOptions opts;
    opts.engine = engines::EngineConfig::huggingFace()
                      .withSpecEE()
                      .withSharding(2, 2);
    opts.spec = hw::HardwareSpec::a100();
    opts.sched.max_batch = 4;
    opts.sched.prefill.chunk_tokens = 8;
    opts.sched.prefill.max_tokens_per_iteration = 16;
    const auto stream = flatStream(6, 12, 48);

    auto one = opts;
    one.workers = 1;
    auto three = opts;
    three.workers = 3;
    const auto r1 = serveStream(one, stream);
    const auto r3 = serveStream(three, stream);
    EXPECT_DOUBLE_EQ(r1.fleet.makespan_s, r3.fleet.makespan_s);
    EXPECT_DOUBLE_EQ(r1.fleet.energy_j, r3.fleet.energy_j);
    EXPECT_EQ(r1.fleet.tokens, r3.fleet.tokens);
    EXPECT_EQ(r1.fleet.stage_busy, r3.fleet.stage_busy);
    EXPECT_EQ(r1.fleet.peak_stage_occupancy,
              r3.fleet.peak_stage_occupancy);
    EXPECT_EQ(r1.fleet.backfill_grants, r3.fleet.backfill_grants);
    EXPECT_EQ(r1.fleet.backfill_tokens, r3.fleet.backfill_tokens);
    for (size_t i = 0; i < r1.outcomes.size(); ++i) {
        EXPECT_EQ(r1.outcomes[i].result.emissions[0].tokens,
                  r3.outcomes[i].result.emissions[0].tokens);
        EXPECT_DOUBLE_EQ(r1.outcomes[i].finish_s,
                         r3.outcomes[i].finish_s);
    }
}

TEST(ShardedFleet, BackfillRidesExitFreedStages)
{
    serve::ServerOptions opts;
    opts.engine = engines::EngineConfig::huggingFace()
                      .withSpecEE()
                      .withSharding(1, 4);
    opts.spec = hw::HardwareSpec::a100();
    opts.workers = 1;
    opts.sched.max_batch = 2;
    // A budget this tight starves prefill chunks behind any decode
    // peer — the ONLY extra grants come from backfilling the stages
    // last iteration's early exits freed.
    opts.sched.prefill.chunk_tokens = 4;
    opts.sched.prefill.max_tokens_per_iteration = 1;
    const auto stream = flatStream(6, 16, 48);

    auto on = opts;
    on.sched.stage_backfill = true;
    auto off = opts;
    off.sched.stage_backfill = false;
    const auto ron = serveStream(on, stream);
    const auto roff = serveStream(off, stream);

    EXPECT_GT(ron.fleet.backfill_grants, 0);
    EXPECT_GT(ron.fleet.backfill_tokens, 0);
    EXPECT_EQ(roff.fleet.backfill_grants, 0);
    EXPECT_EQ(roff.fleet.backfill_tokens, 0);
    // Backfill reschedules prefill, never changes what is decoded.
    EXPECT_EQ(ron.fleet.tokens, roff.fleet.tokens);
    ASSERT_EQ(ron.outcomes.size(), roff.outcomes.size());
    for (size_t i = 0; i < ron.outcomes.size(); ++i) {
        EXPECT_EQ(ron.outcomes[i].result.emissions[0].tokens,
                  roff.outcomes[i].result.emissions[0].tokens);
    }
}

TEST(ShardedFleet, ConsumerBackpressureCapsInflight)
{
    serve::ServerOptions opts;
    opts.engine = engines::EngineConfig::huggingFace().withSpecEE();
    opts.spec = hw::HardwareSpec::a100();
    opts.workers = 1;
    opts.sched.max_batch = 4;
    auto stream = flatStream(6, 10);

    // All six requests share the default consumer; a cap of one
    // serializes them even with four free slots.
    auto capped = opts;
    capped.sched.max_inflight_per_consumer = 1;
    const auto rc = serveStream(capped, stream);
    EXPECT_DOUBLE_EQ(rc.fleet.mean_batch_occupancy, 1.0);
    EXPECT_GT(rc.fleet.backpressure_deferrals, 0);
    for (const auto &o : rc.outcomes) {
        EXPECT_FALSE(o.dropped); // deferred, never starved
        ASSERT_EQ(o.result.emissions.size(), 1u);
    }

    // Cap off: identical knobs admit the full batch and the counter
    // stays untouched.
    const auto ru = serveStream(opts, stream);
    EXPECT_EQ(ru.fleet.backpressure_deferrals, 0);
    EXPECT_GT(ru.fleet.mean_batch_occupancy, 1.0);
    EXPECT_EQ(ru.fleet.tokens, rc.fleet.tokens);
    EXPECT_LE(ru.fleet.makespan_s, rc.fleet.makespan_s);

    // Two consumers, cap 1: at most two decode concurrently.
    for (auto &r : stream)
        r.consumer = r.id % 2;
    const auto r2 = serveStream(capped, stream);
    EXPECT_LE(r2.fleet.mean_batch_occupancy, 2.0);
    EXPECT_EQ(r2.fleet.tokens, rc.fleet.tokens);
}
