/**
 * @file
 * Chunked-prefill subsystem tests: planner budget arithmetic,
 * bit-identity of the disabled path with Engine::runOne, functional
 * bit-identity of chunked outputs, mid-prefill edge cases (deadline
 * drop while chunks remain, KV-budget preemption of a partially
 * prefilled session with bit-identical recompute), determinism
 * across worker counts, the two-tier priority policy (admission,
 * preemption victims), streaming backpressure
 * cancellation, and the interactive-TTFT win of chunking over
 * monolithic priced prefill.
 */

#include <gtest/gtest.h>

#include <map>

#include "metrics/stats.hh"
#include "serve/prefill_planner.hh"
#include "serve/server.hh"
#include "test_util.hh"

using namespace specee;

namespace {

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

TEST(PrefillPlanner, DisabledGrantsNothing)
{
    serve::PrefillPlanner p({.chunk_tokens = 0});
    EXPECT_FALSE(p.enabled());
    EXPECT_EQ(p.chunksFor(4096), 0);
    const auto g = p.plan({512, 0, 64}, {0, 0, 0}, 1);
    EXPECT_EQ(g, (std::vector<int>{0, 0, 0}));
}

TEST(PrefillPlanner, BudgetSharedFifoAfterDecodeReservations)
{
    serve::PrefillPlanner p(
        {.chunk_tokens = 128, .max_tokens_per_iteration = 200});
    EXPECT_TRUE(p.enabled());
    EXPECT_EQ(p.chunksFor(4096), 32);
    EXPECT_EQ(p.chunksFor(1), 1);
    // 2 decode peers reserve 2 tokens; 198 left: first session gets a
    // full chunk, the second the remainder, the third nothing.
    const auto g = p.plan({512, 0, 512, 512}, {0, 0, 0, 0}, 2);
    EXPECT_EQ(g, (std::vector<int>{128, 0, 70, 0}));
    // Pending below the chunk size is granted exactly.
    EXPECT_EQ(p.plan({50, 0}, {0, 0}, 0), (std::vector<int>{50, 0}));
}

TEST(PrefillPlanner, InteractivePromptsJumpBatchBacklogs)
{
    // Tier-aware granting: a short interactive prompt admitted
    // behind long batch-tier backlogs is served first, FIFO within
    // each tier.
    serve::PrefillPlanner p(
        {.chunk_tokens = 128, .max_tokens_per_iteration = 200});
    const auto g = p.plan({4096, 4096, 64, 64}, {1, 1, 0, 0}, 0);
    EXPECT_EQ(g, (std::vector<int>{72, 0, 64, 64}));
}

TEST(PrefillPlanner, ProgressGuaranteedWithoutDecodePeers)
{
    // Budget smaller than the decode batch would otherwise starve an
    // all-prefill iteration forever.
    serve::PrefillPlanner p(
        {.chunk_tokens = 64, .max_tokens_per_iteration = 1});
    const auto g = p.plan({512, 512}, {0, 0}, 0);
    EXPECT_EQ(g, (std::vector<int>{1, 0}));
    // With decode peers saturating the budget, prefill idles (decode
    // still progresses, so the iteration is productive).
    EXPECT_EQ(p.plan({512}, {0}, 4), (std::vector<int>{0}));
}

TEST(ChunkedPrefill, DisabledStaysBitIdenticalToRunOne)
{
    // chunk_tokens = 0 (the "chunk size = infinity" legacy mode):
    // prompts ingest atomically and free, so per-request results —
    // emissions AND modeled costs — are bit-identical to
    // Engine::runOne, exactly as before this subsystem existed.
    const auto &pipe = testutil::tinyPipeline();
    auto stream = mixedStream(3, 3, 2048, 8);

    auto opts = baseOpts(2, 4);
    opts.sched.prefill.chunk_tokens = 0;
    auto rep = serveStream(opts, stream);

    auto engine = pipe.makeEngine(opts.engine, opts.spec);
    ASSERT_EQ(rep.outcomes.size(), stream.size());
    for (const auto &o : rep.outcomes) {
        const auto w = serve::buildPromptWorkload(
            pipe, o.request, engine->config().q4Calibrated());
        auto ref = engine->runOne(w, 0, o.request.seed);
        ASSERT_EQ(o.result.emissions.size(), 1u);
        EXPECT_EQ(o.result.emissions[0].tokens, ref.emissions[0].tokens);
        EXPECT_EQ(o.result.stats.modeled_time_s, ref.stats.modeled_time_s);
        EXPECT_EQ(o.result.stats.oplog.grand().energy_j,
                  ref.stats.oplog.grand().energy_j);
        EXPECT_EQ(o.prefill_chunks, 0);
        EXPECT_DOUBLE_EQ(o.prefill_s, 0.0);
    }
    EXPECT_EQ(rep.fleet.prefill_chunks, 0);
    EXPECT_EQ(rep.fleet.prefill_tokens, 0);
}

TEST(ChunkedPrefill, ChunkedOutputsBitIdenticalTokensCostedPrompts)
{
    // With chunking on, every request's tokens and exit decisions are
    // unchanged (prefill is functionally the same KV append, just
    // sliced), while its modeled cost now includes the priced prompt.
    const auto &pipe = testutil::tinyPipeline();
    auto stream = mixedStream(3, 3, 2048, 8);

    auto opts = baseOpts(2, 8);
    opts.sched.prefill.chunk_tokens = 256;
    opts.sched.prefill.max_tokens_per_iteration = 512;
    auto rep = serveStream(opts, stream);

    auto engine = pipe.makeEngine(opts.engine, opts.spec);
    ASSERT_EQ(rep.outcomes.size(), stream.size());
    long expect_chunks = 0, expect_tokens = 0;
    for (const auto &o : rep.outcomes) {
        const auto w = serve::buildPromptWorkload(
            pipe, o.request, engine->config().q4Calibrated());
        auto ref = engine->runOne(w, 0, o.request.seed);
        ASSERT_EQ(o.result.emissions.size(), 1u);
        EXPECT_EQ(o.result.emissions[0].tokens, ref.emissions[0].tokens);
        EXPECT_EQ(o.result.emissions[0].exit_layers,
                  ref.emissions[0].exit_layers);
        // The priced prompt makes the request strictly more expensive
        // than its prefill-free reference...
        EXPECT_GT(o.result.stats.modeled_time_s, ref.stats.modeled_time_s);
        // ...with the delta exactly the two prefill op classes.
        const auto &log = o.result.stats.oplog;
        const double prefill_t =
            log.totals(hw::OpClass::PrefillWeights).time_s +
            log.totals(hw::OpClass::PrefillCompute).time_s;
        EXPECT_GT(prefill_t, 0.0);
        EXPECT_NEAR(o.result.stats.modeled_time_s - prefill_t,
                    ref.stats.modeled_time_s,
                    1e-9 * ref.stats.modeled_time_s);
        // The iteration budget may split a nominal chunk across
        // iterations, so the granted-iteration count can exceed the
        // unconstrained ceil(prompt / chunk) floor.
        EXPECT_GE(o.prefill_chunks,
                  (w.true_prompt_len + 255) / 256);
        EXPECT_GT(o.prefill_s, 0.0);
        expect_chunks += o.prefill_chunks;
        expect_tokens += w.true_prompt_len;
        // Chunked ingestion delays the first token past the atomic
        // case but TTFT still precedes completion.
        EXPECT_GT(o.ttft_s, o.prefill_s);
        EXPECT_LT(o.ttft_s, o.latency_s);
    }
    EXPECT_EQ(rep.fleet.prefill_chunks, expect_chunks);
    EXPECT_EQ(rep.fleet.prefill_tokens, expect_tokens);
    EXPECT_GT(rep.fleet.mean_prefill_s, 0.0);
}

TEST(ChunkedPrefill, DeterministicAcrossWorkerCounts)
{
    auto stream = mixedStream(4, 4, 2048, 8);

    auto opts1 = baseOpts(1, 4);
    opts1.sched.prefill.chunk_tokens = 256;
    opts1.sched.prefill.max_tokens_per_iteration = 512;
    opts1.sched.kv_budget_blocks = 220;
    auto r1 = serveStream(opts1, stream);

    auto opts3 = baseOpts(3, 4);
    opts3.sched.prefill = opts1.sched.prefill;
    opts3.sched.kv_budget_blocks = opts1.sched.kv_budget_blocks;
    auto r3 = serveStream(opts3, stream);

    EXPECT_EQ(r1.fleet.tokens, r3.fleet.tokens);
    EXPECT_EQ(r1.fleet.prefill_chunks, r3.fleet.prefill_chunks);
    EXPECT_EQ(r1.fleet.prefill_tokens, r3.fleet.prefill_tokens);
    EXPECT_EQ(r1.fleet.preemptions, r3.fleet.preemptions);
    EXPECT_DOUBLE_EQ(r1.fleet.makespan_s, r3.fleet.makespan_s);
    ASSERT_EQ(r1.outcomes.size(), r3.outcomes.size());
    for (size_t i = 0; i < r1.outcomes.size(); ++i) {
        EXPECT_EQ(r1.outcomes[i].result.emissions[0].tokens,
                  r3.outcomes[i].result.emissions[0].tokens);
        EXPECT_DOUBLE_EQ(r1.outcomes[i].ttft_s, r3.outcomes[i].ttft_s);
        EXPECT_DOUBLE_EQ(r1.outcomes[i].prefill_s,
                         r3.outcomes[i].prefill_s);
    }
}

TEST(ChunkedPrefill, DeadlineDropsMidPrefill)
{
    // A long prompt whose deadline expires while chunks remain is
    // dropped at that iteration boundary — the mid-prefill state is
    // deadline-droppable like any decode state.
    serve::StreamOptions so;
    so.n_requests = 2;
    so.gen_len = 8;
    so.prompt_len = 4096;
    so.seed = 0xd00d;
    auto stream = serve::synthesizeStream(so);
    stream[1].deadline_s = 1e-6; // expires after the first boundary

    auto opts = baseOpts(1, 2);
    opts.sched.prefill.chunk_tokens = 256;
    long dropped_tokens = 0;
    opts.on_token = [&](const serve::TokenEvent &ev) {
        if (ev.request_id == stream[1].id)
            ++dropped_tokens;
        return true;
    };
    auto rep = serveStream(opts, stream);

    EXPECT_EQ(rep.fleet.dropped, 1);
    const auto &o = rep.outcomes[1];
    EXPECT_TRUE(o.dropped);
    EXPECT_TRUE(o.result.emissions.empty());
    EXPECT_EQ(dropped_tokens, 0);
    // It was admitted and ingested at least one chunk, but not all.
    EXPECT_GT(o.prefill_chunks, 0);
    EXPECT_LT(o.prefill_chunks, (4096 + 255) / 256);
    // The survivor is unaffected.
    EXPECT_FALSE(rep.outcomes[0].dropped);
    EXPECT_EQ(rep.outcomes[0].result.emissions[0].tokens.size(), 8u);
}

TEST(ChunkedPrefill, KvPreemptionMidPrefillRecomputesBitIdentical)
{
    // Squeeze the KV budget so partially prefilled sessions are
    // evicted; recompute must re-ingest their chunks and reproduce
    // exactly the tokens of an unconstrained run.
    auto stream = mixedStream(3, 3, 2048, 16);

    auto opts = baseOpts(2, 6);
    opts.sched.prefill.chunk_tokens = 128;
    auto unbounded = serveStream(opts, stream);
    EXPECT_EQ(unbounded.fleet.preemptions, 0);

    auto pressed_opts = opts;
    pressed_opts.sched.kv_budget_blocks = 150;
    auto pressed = serveStream(pressed_opts, stream);

    EXPECT_GT(pressed.fleet.preemptions, 0);
    EXPECT_LE(pressed.fleet.peak_kv_blocks, 150);
    // Discarded prefill work was re-done: more chunks executed fleet-
    // wide than the per-request (kept-run) census accounts for.
    long kept_chunks = 0;
    for (const auto &o : pressed.outcomes)
        kept_chunks += o.prefill_chunks;
    EXPECT_GT(pressed.fleet.prefill_chunks, kept_chunks);
    ASSERT_EQ(pressed.outcomes.size(), unbounded.outcomes.size());
    for (size_t i = 0; i < pressed.outcomes.size(); ++i) {
        EXPECT_FALSE(pressed.outcomes[i].dropped);
        EXPECT_EQ(pressed.outcomes[i].result.emissions[0].tokens,
                  unbounded.outcomes[i].result.emissions[0].tokens);
    }
    // The re-ingested prompts cost fleet time.
    EXPECT_GT(pressed.fleet.makespan_s, unbounded.fleet.makespan_s);
}

TEST(ChunkedPrefill, InteractiveTtftBeatsMonolithicPrefill)
{
    // The acceptance tradeoff: under the same offered load, chunking
    // long batch prompts at least halves the interactive tier's p50
    // TTFT relative to monolithic (single-chunk) priced prefill,
    // because a short request no longer waits out a multi-thousand-
    // token prompt occupying the iteration.
    auto stream = mixedStream(4, 4, 4096, 8);

    auto mono = baseOpts(2, 8);
    mono.sched.prefill.chunk_tokens = 1 << 20; // one chunk per prompt
    auto rm = serveStream(mono, stream);

    auto chunked = baseOpts(2, 8);
    chunked.sched.prefill.chunk_tokens = 256;
    chunked.sched.prefill.max_tokens_per_iteration = 512;
    auto rc = serveStream(chunked, stream);

    const auto p50InteractiveTtft = [](const serve::ServeReport &rep) {
        std::vector<double> v;
        for (const auto &o : rep.outcomes)
            if (o.request.priority == serve::Priority::Interactive)
                v.push_back(o.ttft_s);
        return metrics::percentile(v, 50.0);
    };
    const double mono_ttft = p50InteractiveTtft(rm);
    const double chunk_ttft = p50InteractiveTtft(rc);
    EXPECT_GT(mono_ttft, 0.0);
    EXPECT_LE(chunk_ttft * 2.0, mono_ttft);

    // Same functional outputs either way.
    ASSERT_EQ(rm.outcomes.size(), rc.outcomes.size());
    for (size_t i = 0; i < rm.outcomes.size(); ++i) {
        EXPECT_EQ(rm.outcomes[i].result.emissions[0].tokens,
                  rc.outcomes[i].result.emissions[0].tokens);
    }
}

TEST(Priority, BatchTierPreemptedBeforeInteractive)
{
    // Under KV pressure with both tiers active, victims come from the
    // batch tier first even when an interactive session is younger.
    auto stream = mixedStream(3, 3, 64, 16);

    auto opts = baseOpts(2, 4);
    opts.sched.kv_budget_blocks = 40;
    auto rep = serveStream(opts, stream);

    EXPECT_GT(rep.fleet.preemptions, 0);
    long batch_preempts = 0, interactive_preempts = 0;
    for (const auto &o : rep.outcomes) {
        if (o.request.priority == serve::Priority::Batch)
            batch_preempts += o.preemptions;
        else
            interactive_preempts += o.preemptions;
    }
    // Victims come from the batch tier first; interactive sessions
    // are only evicted once no batch peer shares their slots, so the
    // eviction burden skews to the batch tier. The oldest interactive
    // request is never preempted at all (progress guarantee).
    EXPECT_GT(batch_preempts, 0);
    EXPECT_GE(batch_preempts, interactive_preempts);
    EXPECT_EQ(rep.outcomes[0].preemptions, 0);
    // Everything still completes with full outputs.
    for (const auto &o : rep.outcomes) {
        EXPECT_FALSE(o.dropped);
        EXPECT_EQ(o.result.emissions[0].tokens.size(), 16u);
    }
}

TEST(Backpressure, ConsumerCancelStopsStreamAtBoundary)
{
    serve::StreamOptions so;
    so.n_requests = 4;
    so.gen_len = 12;
    so.seed = 0xcafe;
    auto stream = serve::synthesizeStream(so);

    auto opts = baseOpts(2, 4);
    std::map<uint64_t, int> delivered;
    opts.on_token = [&](const serve::TokenEvent &ev) {
        ++delivered[ev.request_id];
        // Cancel request 1 after its third token.
        return !(ev.request_id == 1 && delivered[1] >= 3);
    };
    auto rep = serveStream(opts, stream);

    EXPECT_EQ(rep.fleet.cancelled, 1);
    EXPECT_EQ(rep.fleet.dropped, 0);
    const auto &o = rep.outcomes[1];
    EXPECT_TRUE(o.cancelled);
    EXPECT_FALSE(o.dropped);
    // Delivery stopped at the cancellation boundary, well short of
    // the scripted 12 tokens.
    EXPECT_EQ(delivered[1], 3);
    EXPECT_LT(o.finish_s, rep.outcomes[0].finish_s);
    // The other requests stream to completion.
    for (uint64_t id : {0ull, 2ull, 3ull})
        EXPECT_EQ(delivered[id], 12);
    // Delivered tokens (including the cancelled request's) are fleet
    // goodput.
    EXPECT_EQ(rep.fleet.tokens, 3l * 12 + 3);
}
