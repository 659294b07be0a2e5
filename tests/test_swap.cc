/**
 * @file
 * Swap-to-host preemption + prefill-aware admission watermark tests:
 * paged-pool swap round trips (bit-identical restore, host-block
 * accounting, guards against touching a swapped sequence, a
 * pool-less engine session swapping like a served one), scheduler
 * swap mode reproducing the unpreempted outputs with per-request
 * costs differing only by the swap op classes, mid-prefill victims
 * resuming without re-ingesting chunks, the auto policy never losing
 * to the dearer fixed mode on a given stream, the watermark bounding
 * chunked-admission thrash (including its interaction with
 * StreamOptions::prompt_len), and the mergeStreams
 * ordering / id-collision contract.
 */

#include <gtest/gtest.h>

#include <memory>

#include "engines/decode_session.hh"
#include "model/paged_kv.hh"
#include "serve/server.hh"
#include "test_util.hh"
#include "util/rng.hh"

using namespace specee;
using namespace specee::model;

namespace {

tensor::Vec
vec(int hidden, float base)
{
    tensor::Vec v(static_cast<size_t>(hidden));
    for (int i = 0; i < hidden; ++i)
        v[static_cast<size_t>(i)] = base + static_cast<float>(i);
    return v;
}

serve::ServerOptions
baseOpts(int workers, int max_batch)
{
    serve::ServerOptions o;
    o.engine = engines::EngineConfig::huggingFace().withSpecEE();
    o.spec = hw::HardwareSpec::a100();
    o.workers = workers;
    o.sched.max_batch = max_batch;
    return o;
}

/** Short interactive + long-prompt batch mix, all arriving at t=0. */
std::vector<serve::Request>
mixedStream(int n_short, int n_long, int long_prompt, int gen_len)
{
    serve::StreamOptions shorts;
    shorts.n_requests = n_short;
    shorts.gen_len = gen_len;
    shorts.seed = 0xbeef;
    serve::StreamOptions longs;
    longs.n_requests = n_long;
    longs.gen_len = gen_len;
    longs.prompt_len = long_prompt;
    longs.priority = serve::Priority::Batch;
    longs.id_base = 100;
    longs.seed = 0xf00d;
    return serve::mergeStreams(serve::synthesizeStream(shorts),
                               serve::synthesizeStream(longs));
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

// ---------------------------------------------------------------------------
// Paged-pool swap mechanics
// ---------------------------------------------------------------------------

TEST(PagedKvSwap, RoundTripRestoresEveryPositionBitIdentically)
{
    PagedKvCache pool(2, 16, 4);
    const int seq = pool.createSequence();
    for (int layer = 0; layer < 2; ++layer) {
        for (int pos = 0; pos < 20; ++pos) { // crosses a block boundary
            pool.append(seq, layer,
                        vec(4, static_cast<float>(100 * layer + pos)),
                        vec(4, static_cast<float>(-100 * layer - pos)));
        }
    }
    const int device_before = pool.blocksInUse();
    EXPECT_EQ(pool.hostBlocksInUse(), 0);
    EXPECT_FALSE(pool.isSwapped(seq));

    pool.swapOut(seq);
    EXPECT_TRUE(pool.isSwapped(seq));
    EXPECT_EQ(pool.blocksInUse(), 0); // device blocks all freed
    EXPECT_EQ(pool.hostBlocksInUse(), device_before);
    EXPECT_EQ(pool.seqHostBlocks(seq), device_before);
    // Lengths (the logical block tables) survive the swap.
    EXPECT_EQ(pool.length(seq, 0), 20);
    EXPECT_EQ(pool.length(seq, 1), 20);

    pool.swapIn(seq);
    EXPECT_FALSE(pool.isSwapped(seq));
    EXPECT_EQ(pool.blocksInUse(), device_before);
    EXPECT_EQ(pool.hostBlocksInUse(), 0);
    EXPECT_EQ(pool.seqHostBlocks(seq), 0);
    for (int layer = 0; layer < 2; ++layer) {
        for (int pos = 0; pos < 20; ++pos) {
            EXPECT_FLOAT_EQ(pool.key(seq, layer, pos)[1],
                            static_cast<float>(100 * layer + pos) + 1.0f);
            EXPECT_FLOAT_EQ(pool.value(seq, layer, pos)[3],
                            static_cast<float>(-100 * layer - pos) + 3.0f);
        }
    }
    // The sequence keeps growing normally after the round trip.
    EXPECT_EQ(pool.append(seq, 0, vec(4, 7.0f), vec(4, 8.0f)), 20);
}

TEST(PagedKvSwap, SwapInReallocatesAfterPoolChurn)
{
    // While a sequence sits in the host pool, its former device
    // blocks are reused by another sequence; swap-in must restore
    // into whatever blocks are free then, bit-identically.
    PagedKvCache pool(1, 2, 2);
    const int a = pool.createSequence();
    for (int pos = 0; pos < 20; ++pos) // 2 blocks
        pool.append(a, 0, vec(2, static_cast<float>(pos)), vec(2, 0.5f));
    pool.swapOut(a);

    const int b = pool.createSequence();
    for (int pos = 0; pos < 2 * kKvBlockSize; ++pos) // whole pool
        pool.append(b, 0, vec(2, 999.0f), vec(2, 999.0f));
    EXPECT_EQ(pool.blocksFree(), 0);
    pool.dropSequence(b);

    pool.swapIn(a);
    for (int pos = 0; pos < 20; ++pos)
        EXPECT_FLOAT_EQ(pool.key(a, 0, pos)[0], static_cast<float>(pos));
}

TEST(PagedKvSwap, SwappedSequenceIsUntouchableAndDroppable)
{
    PagedKvCache pool(1, 4, 2);
    const int seq = pool.createSequence();
    pool.append(seq, 0, vec(2, 1.0f), vec(2, 2.0f));
    pool.swapOut(seq);

    EXPECT_DEATH(pool.append(seq, 0, vec(2, 0.0f), vec(2, 0.0f)),
                 "swapped");
    EXPECT_DEATH(pool.key(seq, 0, 0), "swapped");
    EXPECT_DEATH(pool.truncate(seq, 1), "swapped");
    EXPECT_DEATH(pool.swapOut(seq), "double swap-out");

    // Dropping a swapped sequence releases its host-pool footprint.
    EXPECT_GT(pool.hostBlocksInUse(), 0);
    pool.dropSequence(seq);
    EXPECT_EQ(pool.hostBlocksInUse(), 0);
    EXPECT_EQ(pool.blocksInUse(), 0);
}

TEST(PagedKvSwap, SessionWithoutAPoolSwapsBitIdentically)
{
    // Engine::makeSession without a fleet pool gives the session a
    // private paged pool, so it swaps like a served one: a swap round
    // trip mid-decode changes nothing but the two swap op classes.
    const auto &pipe = testutil::tinyPipeline();
    auto engine = pipe.makeEngine(
        engines::EngineConfig::huggingFace().withSpecEE(),
        hw::HardwareSpec::a100());
    const auto w = pipe.makeWorkload("Alpaca", testutil::smallGen(1, 16));
    const auto ref = engine->runOne(w, 0, 7);

    auto sess = engine->makeSession(w, 7);
    sess->prefill();
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(sess->step());
    const int blocks = sess->kvBlocks();
    ASSERT_GT(blocks, 0);
    EXPECT_GT(sess->swapOut(), 0.0);
    EXPECT_EQ(sess->kvBlocks(), 0);
    EXPECT_EQ(sess->hostBlocks(), blocks);
    EXPECT_GT(sess->swapIn(), 0.0);
    EXPECT_EQ(sess->kvBlocks(), blocks);
    while (sess->step()) {
    }
    const auto got = sess->finalize();

    EXPECT_EQ(got.emissions[0].tokens, ref.emissions[0].tokens);
    EXPECT_EQ(got.emissions[0].exit_layers, ref.emissions[0].exit_layers);
    for (int c = 0; c < hw::kNumOpClasses; ++c) {
        const auto cls = static_cast<hw::OpClass>(c);
        const auto &g = got.stats.oplog.totals(cls);
        const auto &r = ref.stats.oplog.totals(cls);
        if (cls == hw::OpClass::KvSwapOut || cls == hw::OpClass::KvSwapIn) {
            EXPECT_EQ(g.count, 1);
            continue;
        }
        EXPECT_EQ(g.time_s, r.time_s) << hw::opClassName(cls);
        EXPECT_EQ(g.bytes, r.bytes) << hw::opClassName(cls);
        EXPECT_EQ(g.count, r.count) << hw::opClassName(cls);
    }
}

// ---------------------------------------------------------------------------
// Scheduler swap preemption
// ---------------------------------------------------------------------------

TEST(SwapPreemption, SwapModeReproducesUnpreemptedRunExactly)
{
    // Atomic (unchunked) prefill so the per-request cost census has
    // no prefill classes: under swap preemption the kept run is the
    // ONLY run, so tokens AND per-class modeled costs must match the
    // unpreempted reference except for the two swap op classes.
    const auto &pipe = testutil::tinyPipeline();
    serve::StreamOptions so;
    so.n_requests = 8;
    so.gen_len = 24;
    so.seed = 0x5a9;
    const auto stream = serve::synthesizeStream(so);

    auto opts = baseOpts(2, 8);
    opts.sched.kv_budget_blocks = 170;
    opts.sched.preempt_mode = serve::PreemptMode::Swap;
    const auto pressed = serveStream(opts, stream);

    ASSERT_GT(pressed.fleet.preemptions, 0);
    EXPECT_EQ(pressed.fleet.swaps_out, pressed.fleet.preemptions);
    EXPECT_GT(pressed.fleet.swaps_in, 0);
    EXPECT_EQ(pressed.fleet.swaps_in, pressed.fleet.swaps_out);
    EXPECT_LE(pressed.fleet.peak_kv_blocks, 170);
    EXPECT_GT(pressed.fleet.peak_host_kv_blocks, 0);
    EXPECT_GT(pressed.fleet.peak_host_mem_gb, 0.0);

    auto engine = pipe.makeEngine(opts.engine, opts.spec);
    long swapped_requests = 0;
    for (const auto &o : pressed.outcomes) {
        const auto w = serve::buildPromptWorkload(
            pipe, o.request, engine->config().q4Calibrated());
        const auto ref = engine->runOne(w, 0, o.request.seed);
        ASSERT_EQ(o.result.emissions.size(), 1u);
        EXPECT_EQ(o.result.emissions[0].tokens, ref.emissions[0].tokens);
        EXPECT_EQ(o.result.emissions[0].exit_layers,
                  ref.emissions[0].exit_layers);
        // Per-class census: identical except the swap transfers.
        for (int c = 0; c < hw::kNumOpClasses; ++c) {
            const auto cls = static_cast<hw::OpClass>(c);
            const auto &got = o.result.stats.oplog.totals(cls);
            const auto &want = ref.stats.oplog.totals(cls);
            if (cls == hw::OpClass::KvSwapOut ||
                cls == hw::OpClass::KvSwapIn) {
                EXPECT_EQ(got.count, o.swaps);
                continue;
            }
            EXPECT_EQ(got.time_s, want.time_s)
                << "class " << hw::opClassName(cls);
            EXPECT_EQ(got.energy_j, want.energy_j);
            EXPECT_EQ(got.count, want.count);
        }
        if (o.swaps > 0) {
            ++swapped_requests;
            const auto &out =
                o.result.stats.oplog.totals(hw::OpClass::KvSwapOut);
            const auto &in =
                o.result.stats.oplog.totals(hw::OpClass::KvSwapIn);
            EXPECT_EQ(out.count, o.swaps);
            EXPECT_EQ(in.count, o.swaps);
            // Same KV moved both ways: no progress while swapped.
            EXPECT_EQ(out.bytes, in.bytes);
            EXPECT_GT(out.time_s, 0.0);
            // The swapped request is dearer than its reference by
            // exactly the transfers.
            EXPECT_NEAR(o.result.stats.modeled_time_s -
                            (out.time_s + in.time_s),
                        ref.stats.modeled_time_s,
                        1e-9 * ref.stats.modeled_time_s);
        }
        EXPECT_EQ(o.preemptions, o.swaps);
    }
    EXPECT_GT(swapped_requests, 0);
}

TEST(SwapPreemption, MidPrefillVictimsResumeWithoutReingestingChunks)
{
    // Chunked prefill + a budget tight enough to evict partially
    // prefilled sessions. Under swap, prefill progress survives the
    // round trip: the fleet ingests every prompt token exactly once,
    // where recompute re-ingests evicted prompts from scratch.
    const auto stream = mixedStream(3, 3, 2048, 16);

    auto opts = baseOpts(2, 6);
    opts.sched.prefill.chunk_tokens = 128;
    const auto unbounded = serveStream(opts, stream);
    ASSERT_EQ(unbounded.fleet.preemptions, 0);

    auto swap_opts = opts;
    swap_opts.sched.kv_budget_blocks = 150;
    swap_opts.sched.preempt_mode = serve::PreemptMode::Swap;
    const auto swapped = serveStream(swap_opts, stream);

    auto rec_opts = swap_opts;
    rec_opts.sched.preempt_mode = serve::PreemptMode::Recompute;
    const auto recomputed = serveStream(rec_opts, stream);

    ASSERT_GT(swapped.fleet.swaps_out, 0);
    ASSERT_GT(recomputed.fleet.preemptions, 0);
    EXPECT_EQ(recomputed.fleet.swaps_out, 0);

    // Every prompt token ingested exactly once under swap...
    EXPECT_EQ(swapped.fleet.prefill_tokens,
              unbounded.fleet.prefill_tokens);
    // ...while recompute re-ingests its victims' chunks.
    EXPECT_GT(recomputed.fleet.prefill_tokens,
              unbounded.fleet.prefill_tokens);

    // Both mechanisms are lossless: tokens match the unconstrained
    // run bit-identically.
    for (size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(swapped.outcomes[i].result.emissions[0].tokens,
                  unbounded.outcomes[i].result.emissions[0].tokens);
        EXPECT_EQ(recomputed.outcomes[i].result.emissions[0].tokens,
                  unbounded.outcomes[i].result.emissions[0].tokens);
    }
}

TEST(SwapPreemption, DeterministicAcrossWorkerCountsUnderSwap)
{
    const auto stream = mixedStream(3, 3, 2048, 16);

    auto opts1 = baseOpts(1, 6);
    opts1.sched.prefill.chunk_tokens = 128;
    opts1.sched.kv_budget_blocks = 150;
    opts1.sched.preempt_mode = serve::PreemptMode::Swap;
    const auto r1 = serveStream(opts1, stream);

    auto opts3 = baseOpts(3, 6);
    opts3.sched = opts1.sched;
    const auto r3 = serveStream(opts3, stream);

    EXPECT_GT(r1.fleet.swaps_out, 0);
    EXPECT_EQ(r1.fleet.swaps_out, r3.fleet.swaps_out);
    EXPECT_EQ(r1.fleet.swaps_in, r3.fleet.swaps_in);
    EXPECT_EQ(r1.fleet.tokens, r3.fleet.tokens);
    EXPECT_DOUBLE_EQ(r1.fleet.makespan_s, r3.fleet.makespan_s);
    EXPECT_EQ(r1.fleet.peak_host_kv_blocks, r3.fleet.peak_host_kv_blocks);
    ASSERT_EQ(r1.outcomes.size(), r3.outcomes.size());
    for (size_t i = 0; i < r1.outcomes.size(); ++i) {
        EXPECT_EQ(r1.outcomes[i].result.emissions[0].tokens,
                  r3.outcomes[i].result.emissions[0].tokens);
        EXPECT_EQ(r1.outcomes[i].swaps, r3.outcomes[i].swaps);
        EXPECT_DOUBLE_EQ(r1.outcomes[i].ttft_s, r3.outcomes[i].ttft_s);
    }
}

TEST(SwapPreemption, AutoNeverWorseThanTheDearerFixedMode)
{
    // The auto policy decides per victim from modeled costs; on any
    // fixed stream its makespan must not exceed the worse of the two
    // fixed mechanisms (it may beat both by mixing them).
    const auto stream = mixedStream(3, 3, 2048, 16);

    auto opts = baseOpts(2, 6);
    opts.sched.prefill.chunk_tokens = 128;
    opts.sched.kv_budget_blocks = 150;

    opts.sched.preempt_mode = serve::PreemptMode::Recompute;
    const auto rec = serveStream(opts, stream);
    opts.sched.preempt_mode = serve::PreemptMode::Swap;
    const auto swp = serveStream(opts, stream);
    opts.sched.preempt_mode = serve::PreemptMode::Auto;
    const auto aut = serveStream(opts, stream);

    ASSERT_GT(aut.fleet.preemptions, 0);
    const double dearer =
        std::max(rec.fleet.makespan_s, swp.fleet.makespan_s);
    EXPECT_LE(aut.fleet.makespan_s, dearer * (1.0 + 1e-9));

    // All three mechanisms deliver identical tokens.
    for (size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(aut.outcomes[i].result.emissions[0].tokens,
                  rec.outcomes[i].result.emissions[0].tokens);
        EXPECT_EQ(aut.outcomes[i].result.emissions[0].tokens,
                  swp.outcomes[i].result.emissions[0].tokens);
    }
}

TEST(SwapPreemption, PlatformWithoutHostLinkDegradesToRecompute)
{
    // swap_bw_gbs = 0 is a documented valid configuration (no swap
    // path): auto must quietly fall back to recompute there, and an
    // explicit swap request must fail fast at run start.
    const auto stream = mixedStream(3, 3, 2048, 16);
    hw::HardwareSpec no_link = hw::HardwareSpec::a100();
    no_link.swap_bw_gbs = 0.0;

    auto opts = baseOpts(2, 6);
    opts.spec = no_link;
    opts.sched.prefill.chunk_tokens = 128;
    opts.sched.kv_budget_blocks = 150;
    opts.sched.preempt_mode = serve::PreemptMode::Auto;
    const auto rep = serveStream(opts, stream);
    EXPECT_GT(rep.fleet.preemptions, 0);
    EXPECT_EQ(rep.fleet.swaps_out, 0);
    for (const auto &o : rep.outcomes)
        EXPECT_FALSE(o.dropped);

    auto swap_opts = opts;
    swap_opts.sched.preempt_mode = serve::PreemptMode::Swap;
    EXPECT_DEATH(serveStream(swap_opts, stream), "no.*host link");
}

TEST(SwapPreemption, RecomputeModeBitIdenticalToLegacyScheduler)
{
    // preempt_mode = Recompute (the default) with the watermark off
    // must reproduce the pre-swap scheduler bit-identically — the
    // new states and counters simply never engage.
    const auto stream = mixedStream(3, 3, 2048, 16);

    auto opts = baseOpts(2, 6);
    opts.sched.prefill.chunk_tokens = 128;
    opts.sched.kv_budget_blocks = 150;
    const auto rep = serveStream(opts, stream);

    ASSERT_GT(rep.fleet.preemptions, 0);
    EXPECT_EQ(rep.fleet.swaps_out, 0);
    EXPECT_EQ(rep.fleet.swaps_in, 0);
    EXPECT_EQ(rep.fleet.watermark_rejections, 0);
    EXPECT_EQ(rep.fleet.peak_host_kv_blocks, 0);
    EXPECT_DOUBLE_EQ(rep.fleet.peak_host_mem_gb, 0.0);
    for (const auto &o : rep.outcomes) {
        EXPECT_EQ(o.swaps, 0);
        const auto &log = o.result.stats.oplog;
        EXPECT_EQ(log.totals(hw::OpClass::KvSwapOut).count, 0);
        EXPECT_EQ(log.totals(hw::OpClass::KvSwapIn).count, 0);
    }
}

// ---------------------------------------------------------------------------
// Prefill-aware admission watermark
// ---------------------------------------------------------------------------

TEST(Watermark, BoundsChunkedAdmissionThrashForLongPrompts)
{
    // Long prompts via StreamOptions::prompt_len, chunked
    // admission and a tight budget: without the watermark, the
    // first-chunk reservation over-admits and the fleet thrashes
    // (admit, chunk, evict, recompute); with it, long prompts wait
    // until their full prompt fits, so less prefill work is redone.
    serve::StreamOptions so;
    so.n_requests = 6;
    so.gen_len = 8;
    so.prompt_len = 4096; // each request's PromptSpec suffix_len
    so.seed = 0x77a7;
    const auto stream = serve::synthesizeStream(so);

    auto opts = baseOpts(2, 6);
    opts.sched.prefill.chunk_tokens = 128;
    opts.sched.kv_budget_blocks = 160;
    const auto thrash = serveStream(opts, stream);

    auto wm_opts = opts;
    wm_opts.sched.kv_watermark = 0.85;
    const auto gated = serveStream(wm_opts, stream);

    ASSERT_GT(thrash.fleet.preemptions, 0);
    EXPECT_EQ(thrash.fleet.watermark_rejections, 0);
    EXPECT_GT(gated.fleet.watermark_rejections, 0);
    // The override drives true prompt length: the kept runs ingest
    // 6 x 4096 prompt tokens; thrash re-ingests on top.
    EXPECT_GE(thrash.fleet.prefill_tokens, 6L * 4096);
    EXPECT_GE(gated.fleet.prefill_tokens, 6L * 4096);
    EXPECT_LT(gated.fleet.prefill_tokens, thrash.fleet.prefill_tokens);
    EXPECT_LT(gated.fleet.preemptions, thrash.fleet.preemptions);
    // Deferred admission is still lossless.
    for (size_t i = 0; i < stream.size(); ++i) {
        EXPECT_FALSE(gated.outcomes[i].dropped);
        EXPECT_EQ(gated.outcomes[i].result.emissions[0].tokens,
                  thrash.outcomes[i].result.emissions[0].tokens);
    }
}

TEST(Watermark, IgnoredWithoutBudgetAndSatisfiedFleetsMatch)
{
    // kv_watermark without a KV budget is inert: identical timeline.
    const auto stream = mixedStream(3, 2, 1024, 8);

    auto base = baseOpts(2, 4);
    base.sched.prefill.chunk_tokens = 256;
    const auto plain = serveStream(base, stream);

    auto wm = base;
    wm.sched.kv_watermark = 0.5;
    const auto gated = serveStream(wm, stream);

    EXPECT_EQ(gated.fleet.watermark_rejections, 0);
    EXPECT_DOUBLE_EQ(plain.fleet.makespan_s, gated.fleet.makespan_s);
    for (size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(plain.outcomes[i].result.emissions[0].tokens,
                  gated.outcomes[i].result.emissions[0].tokens);
    }
}

// ---------------------------------------------------------------------------
// mergeStreams contract (PR 4 leftovers)
// ---------------------------------------------------------------------------

TEST(MergeStreams, OrdersByArrivalThenIdAcrossSources)
{
    serve::StreamOptions a;
    a.n_requests = 4;
    a.rate_rps = 6.0;
    a.seed = 0x111;
    serve::StreamOptions b;
    b.n_requests = 4;
    b.rate_rps = 9.0;
    b.id_base = 50;
    b.seed = 0x222;
    const auto merged = serve::mergeStreams(serve::synthesizeStream(a),
                                            serve::synthesizeStream(b));

    ASSERT_EQ(merged.size(), 8u);
    for (size_t i = 1; i < merged.size(); ++i) {
        const auto &prev = merged[i - 1];
        const auto &cur = merged[i];
        EXPECT_TRUE(prev.arrival_s < cur.arrival_s ||
                    (prev.arrival_s == cur.arrival_s &&
                     prev.id < cur.id));
    }

    // Equal arrivals (closed-loop streams, everything at t = 0) tie-
    // break by id, so the merge is a stable total order the
    // scheduler's (arrival, id) admission contract accepts.
    serve::StreamOptions c;
    c.n_requests = 3;
    c.seed = 0x333;
    serve::StreamOptions d;
    d.n_requests = 3;
    d.id_base = 10;
    d.seed = 0x444;
    const auto tied = serve::mergeStreams(serve::synthesizeStream(c),
                                          serve::synthesizeStream(d));
    for (size_t i = 1; i < tied.size(); ++i)
        EXPECT_LT(tied[i - 1].id, tied[i].id);
}

TEST(MergeStreams, DuplicateIdsAreFatal)
{
    // Colliding ids (forgotten id_base) would make token streams and
    // outcome attribution ambiguous — the merge refuses them, even
    // when the duplicates never sort adjacent.
    serve::StreamOptions a;
    a.n_requests = 3;
    a.seed = 0x555;
    serve::StreamOptions b;
    b.n_requests = 3;
    b.rate_rps = 4.0; // different arrivals: duplicates not adjacent
    b.seed = 0x666;
    EXPECT_DEATH(serve::mergeStreams(serve::synthesizeStream(a),
                                     serve::synthesizeStream(b)),
                 "duplicate request id");
}
