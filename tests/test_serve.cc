/**
 * @file
 * Serving-layer tests: deterministic live-batched fleet results
 * regardless of worker count or submitting threads, FIFO and
 * tier-first admission,
 * fleet-vs-per-request stats consistency, sequential equivalence of
 * the live scheduler with Engine::runOne, KV-pressure preemption,
 * deadline drops, per-token streaming / TTFT metrics, the
 * batched-serving speedup over sequential execution, and on-demand
 * KV block storage.
 */

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "serve/server.hh"
#include "test_util.hh"

using namespace specee;

namespace {

std::vector<serve::Request>
makeStream(int n, double rate_rps, int gen_len = 12)
{
    serve::StreamOptions so;
    so.datasets = {"MT-Bench", "SUM", "QA"};
    so.n_requests = n;
    so.gen_len = gen_len;
    so.rate_rps = rate_rps;
    so.seed = 0xbeef;
    return serve::synthesizeStream(so);
}

serve::ServerOptions
serverOpts(int workers, int max_batch)
{
    serve::ServerOptions o;
    o.engine = engines::EngineConfig::huggingFace().withSpecEE();
    o.spec = hw::HardwareSpec::a100();
    o.workers = workers;
    o.sched.max_batch = max_batch;
    return o;
}

} // namespace

TEST(Server, DuplicateRequestIdsDie)
{
    // SLO verdicts, controller rewards and trace flows are keyed by
    // request id: a shared id must fail loudly, not cross-credit.
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(2, 0.0, 6);
    stream[1].id = stream[0].id;
    EXPECT_DEATH(
        {
            serve::Server server(pipe, serverOpts(1, 2));
            server.submit(stream);
            server.drain();
        },
        "duplicate request id");
}

TEST(RequestStream, PoissonArrivalsAreOrderedAndDeterministic)
{
    auto a = makeStream(16, 4.0);
    auto b = makeStream(16, 4.0);
    ASSERT_EQ(a.size(), 16u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s);
        if (i > 0) {
            EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
        }
    }
}

TEST(Server, DeterministicAcrossWorkerCounts)
{
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(8, 6.0);

    serve::Server one(pipe, serverOpts(1, 4));
    one.submit(stream);
    auto r1 = one.drain();

    serve::Server three(pipe, serverOpts(3, 4));
    three.submit(stream);
    auto r3 = three.drain();

    ASSERT_EQ(r1.outcomes.size(), r3.outcomes.size());
    for (size_t i = 0; i < r1.outcomes.size(); ++i) {
        const auto &a = r1.outcomes[i];
        const auto &b = r3.outcomes[i];
        EXPECT_EQ(a.request.id, b.request.id);
        ASSERT_EQ(a.result.emissions.size(), 1u);
        EXPECT_EQ(a.result.emissions[0].tokens,
                  b.result.emissions[0].tokens);
        EXPECT_DOUBLE_EQ(a.admit_s, b.admit_s);
        EXPECT_DOUBLE_EQ(a.finish_s, b.finish_s);
    }
    EXPECT_EQ(r1.fleet.tokens, r3.fleet.tokens);
    EXPECT_DOUBLE_EQ(r1.fleet.makespan_s, r3.fleet.makespan_s);
    EXPECT_DOUBLE_EQ(r1.fleet.energy_j, r3.fleet.energy_j);
    EXPECT_DOUBLE_EQ(r1.fleet.p99_latency_s, r3.fleet.p99_latency_s);
}

TEST(Server, FifoAdmissionFairness)
{
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(6, 0.0); // all arrive at t = 0

    serve::Server server(pipe, serverOpts(2, 2));
    server.submit(stream);
    auto rep = server.drain();

    ASSERT_EQ(rep.outcomes.size(), 6u);
    // Outcomes come back in (arrival, id) order; with equal arrivals
    // and one tier, admission follows id order, and admission times
    // never go backwards: nobody overtakes the queue.
    for (size_t i = 0; i < rep.outcomes.size(); ++i) {
        const auto &o = rep.outcomes[i];
        EXPECT_EQ(o.request.id, static_cast<uint64_t>(i));
        EXPECT_GE(o.queue_s, 0.0);
        if (i > 0) {
            EXPECT_GE(o.admit_s, rep.outcomes[i - 1].admit_s);
        }
    }
    // Exactly max_batch requests are admitted at the start.
    EXPECT_DOUBLE_EQ(rep.outcomes[0].admit_s, 0.0);
    EXPECT_DOUBLE_EQ(rep.outcomes[1].admit_s, 0.0);
    EXPECT_GT(rep.outcomes[2].admit_s, 0.0);
}

TEST(Server, TierFirstAdmission)
{
    // All four arrive at t = 0 and one slot serves them one by one:
    // the interactive tier goes first, each tier in id order.
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(4, 0.0, 6);
    stream[0].priority = serve::Priority::Batch;
    stream[1].priority = serve::Priority::Interactive;
    stream[2].priority = serve::Priority::Batch;
    stream[3].priority = serve::Priority::Interactive;

    serve::Server server(pipe, serverOpts(1, 1));
    server.submit(stream);
    const auto rep = server.drain();

    ASSERT_EQ(rep.outcomes.size(), 4u);
    for (size_t i = 0; i < rep.outcomes.size(); ++i)
        ASSERT_EQ(rep.outcomes[i].request.id, static_cast<uint64_t>(i));
    const auto admit = [&](size_t id) { return rep.outcomes[id].admit_s; };
    EXPECT_DOUBLE_EQ(admit(1), 0.0);
    EXPECT_LT(admit(1), admit(3));
    EXPECT_LT(admit(3), admit(0));
    EXPECT_LT(admit(0), admit(2));
}

TEST(Server, ConcurrentSubmitIsDeterministic)
{
    // Four threads split one stream; the report must be the one a
    // single-thread submit gets, bit for bit.
    const auto &pipe = testutil::tinyPipeline();
    const auto stream = makeStream(12, 8.0);

    serve::Server single(pipe, serverOpts(2, 4));
    single.submit(stream);
    const auto want = single.drain();

    serve::Server shared(pipe, serverOpts(2, 4));
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (size_t i = t; i < stream.size(); i += 4)
                shared.submit(stream[i]);
        });
    }
    for (auto &th : threads)
        th.join();
    const auto got = shared.drain();

    ASSERT_EQ(got.outcomes.size(), want.outcomes.size());
    for (size_t i = 0; i < want.outcomes.size(); ++i) {
        const auto &a = want.outcomes[i];
        const auto &b = got.outcomes[i];
        EXPECT_EQ(a.request.id, b.request.id);
        ASSERT_EQ(b.result.emissions.size(), 1u);
        EXPECT_EQ(a.result.emissions[0].tokens,
                  b.result.emissions[0].tokens);
        EXPECT_EQ(a.admit_s, b.admit_s);
        EXPECT_EQ(a.finish_s, b.finish_s);
        EXPECT_EQ(a.ttft_s, b.ttft_s);
        EXPECT_EQ(a.max_itl_s, b.max_itl_s);
    }
    EXPECT_EQ(got.fleet.tokens, want.fleet.tokens);
    EXPECT_EQ(got.fleet.iterations, want.fleet.iterations);
    EXPECT_EQ(got.fleet.makespan_s, want.fleet.makespan_s);
    EXPECT_EQ(got.fleet.energy_j, want.fleet.energy_j);
    EXPECT_EQ(got.fleet.p99_itl_s, want.fleet.p99_itl_s);
}

TEST(Server, FleetStatsMatchPerRequestStats)
{
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(5, 0.0);

    // Sequential serving: no amortization, so the fleet timeline must
    // reduce exactly to the sum of the independent runs.
    serve::Server server(pipe, serverOpts(2, 1));
    server.submit(stream);
    auto rep = server.drain();

    long tokens = 0;
    double time_s = 0.0, energy_j = 0.0, flops = 0.0;
    for (const auto &o : rep.outcomes) {
        tokens += o.result.stats.tokens;
        time_s += o.result.stats.modeled_time_s;
        const auto grand = o.result.stats.oplog.grand();
        energy_j += grand.energy_j;
        flops += grand.flops;
    }
    EXPECT_EQ(rep.fleet.tokens, tokens);
    EXPECT_NEAR(rep.fleet.makespan_s, time_s, 1e-9 * time_s);
    EXPECT_NEAR(rep.fleet.energy_j, energy_j, 1e-9 * energy_j);
    EXPECT_NEAR(rep.fleet.oplog.grand().flops, flops, 1e-6 * flops);
    EXPECT_EQ(rep.fleet.requests, 5);
    EXPECT_DOUBLE_EQ(rep.fleet.mean_batch_occupancy, 1.0);
    // Sequential latency: each request waits for all predecessors.
    EXPECT_GE(rep.fleet.p99_latency_s, rep.fleet.p50_latency_s);
}

TEST(Server, KvStorageTracksPeakOccupancyNotCapacity)
{
    // Open-loop chat: the worker pools are sized for full batches of
    // maximum-context sequences, but only the blocks the run actually
    // reached get storage.
    const auto &pipe = testutil::tinyPipeline();
    const auto &mcfg = pipe.modelConfig();
    const auto opts = serverOpts(2, 8);
    serve::Server server(pipe, opts);
    server.submit(makeStream(24, 40.0, 16));
    const auto rep = server.drain();
    const long chunk = model::kKvChunkBlocks;
    const long materialized = rep.fleet.kv_materialized_blocks;

    EXPECT_GT(rep.fleet.peak_kv_blocks, 0);
    EXPECT_GT(materialized, 0);
    // Each pool keeps its peak occupancy rounded up to whole chunks,
    // and no pool peaks above the fleet.
    const long peak_chunks = (rep.fleet.peak_kv_blocks + chunk - 1) / chunk;
    EXPECT_LE(materialized, opts.workers * peak_chunks * chunk);
    // Per-pool capacity: max_batch sequences of the maximum context.
    const long capacity =
        static_cast<long>(opts.workers) * opts.sched.max_batch *
        mcfg.n_layers * (mcfg.context_len / model::kKvBlockSize + 2);
    EXPECT_LE(materialized * 8, capacity);
}

TEST(Server, BatchedServingBeatsSequential)
{
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(8, 0.0);

    serve::Server seq(pipe, serverOpts(2, 1));
    seq.submit(stream);
    auto rs = seq.drain();

    serve::Server batched(pipe, serverOpts(2, 4));
    batched.submit(stream);
    auto rb = batched.drain();

    // Same functional tokens either way...
    EXPECT_EQ(rs.fleet.tokens, rb.fleet.tokens);
    // ...but continuous batching amortizes the weight reads.
    EXPECT_GT(rb.fleet.tokens_per_s, rs.fleet.tokens_per_s);
    EXPECT_LT(rb.fleet.makespan_s, rs.fleet.makespan_s);
    EXPECT_GT(rb.fleet.mean_batch_occupancy, 1.5);
    // Amortized weight reads also cut fleet energy.
    EXPECT_LT(rb.fleet.energy_j, rs.fleet.energy_j);
}

TEST(Server, Q8BackendSpeedsUpBatchedServing)
{
    // The quantized-serving scenario: a q8 model halves the shared
    // weight stream every decode iteration waits on, so batched
    // fleet throughput must rise by well over the private-traffic
    // dilution (the acceptance bar is 1.3x at max_batch >= 4).
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(8, 0.0);

    auto opts = serverOpts(2, 4);
    opts.engine = engines::EngineConfig::huggingFace();
    serve::Server fp32(pipe, opts);
    fp32.submit(stream);
    auto r_fp32 = fp32.drain();

    opts.engine = engines::EngineConfig::huggingFace().withWeightBackend(
        tensor::WeightBackend::Q8);
    serve::Server q8(pipe, opts);
    q8.submit(stream);
    auto r_q8 = q8.drain();

    EXPECT_EQ(r_q8.fleet.tokens, r_fp32.fleet.tokens);
    EXPECT_GT(r_q8.fleet.tokens_per_s, 1.3 * r_fp32.fleet.tokens_per_s);
    EXPECT_LT(r_q8.fleet.energy_per_token_j,
              r_fp32.fleet.energy_per_token_j);
}

TEST(Engine, RunOneIsReentrant)
{
    const auto &pipe = testutil::tinyPipeline();
    auto w = pipe.makeWorkload("MT-Bench", testutil::smallGen(3, 16));
    auto engine = pipe.makeEngine(
        engines::EngineConfig::huggingFace().withSpecEE(),
        hw::HardwareSpec::a100());

    auto a = engine->runOne(w, 1, 77);
    auto full = engine->run(w, 123); // unrelated work in between
    auto b = engine->runOne(w, 1, 77);

    ASSERT_EQ(a.emissions.size(), 1u);
    ASSERT_EQ(b.emissions.size(), 1u);
    EXPECT_EQ(a.emissions[0].tokens, b.emissions[0].tokens);
    EXPECT_EQ(a.emissions[0].exit_layers, b.emissions[0].exit_layers);
    EXPECT_DOUBLE_EQ(a.stats.modeled_time_s, b.stats.modeled_time_s);
    EXPECT_EQ(full.emissions.size(), 3u);
}

TEST(Server, LiveSequentialMatchesRunOne)
{
    // Acceptance bar for the live scheduler: max_batch = 1 with an
    // unbounded KV budget reproduces sequential per-request serving
    // exactly — emissions AND modeled per-request costs are
    // bit-identical to Engine::runOne.
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(6, 4.0);

    serve::Server server(pipe, serverOpts(2, 1));
    server.submit(stream);
    auto rep = server.drain();

    auto engine = pipe.makeEngine(
        engines::EngineConfig::huggingFace().withSpecEE(),
        hw::HardwareSpec::a100());
    ASSERT_EQ(rep.outcomes.size(), stream.size());
    for (const auto &o : rep.outcomes) {
        const auto w = serve::buildPromptWorkload(
            pipe, o.request, engine->config().q4Calibrated());
        auto ref = engine->runOne(w, 0, o.request.seed);
        ASSERT_EQ(o.result.emissions.size(), 1u);
        EXPECT_EQ(o.result.emissions[0].tokens, ref.emissions[0].tokens);
        EXPECT_EQ(o.result.emissions[0].exit_layers,
                  ref.emissions[0].exit_layers);
        EXPECT_EQ(o.result.stats.modeled_time_s,
                  ref.stats.modeled_time_s);
        EXPECT_EQ(o.result.stats.tokens, ref.stats.tokens);
        EXPECT_EQ(o.result.stats.oplog.grand().energy_j,
                  ref.stats.oplog.grand().energy_j);
        EXPECT_EQ(o.result.stats.exits, ref.stats.exits);
        EXPECT_EQ(o.result.stats.peak_mem_gb, ref.stats.peak_mem_gb);
        EXPECT_EQ(o.preemptions, 0);
        EXPECT_FALSE(o.dropped);
    }
}

TEST(Server, BatchedRequestsBitIdenticalToRunOne)
{
    // §6.3: SpecEE (and the functional decode in general) is
    // orthogonal to the serving stack — live interleaving of many
    // sessions on one engine must not change any request's tokens.
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(6, 0.0);

    serve::Server server(pipe, serverOpts(1, 4));
    server.submit(stream);
    auto rep = server.drain();

    auto engine = pipe.makeEngine(
        engines::EngineConfig::huggingFace().withSpecEE(),
        hw::HardwareSpec::a100());
    for (const auto &o : rep.outcomes) {
        const auto w = serve::buildPromptWorkload(
            pipe, o.request, engine->config().q4Calibrated());
        auto ref = engine->runOne(w, 0, o.request.seed);
        EXPECT_EQ(o.result.emissions[0].tokens, ref.emissions[0].tokens);
        EXPECT_EQ(o.result.stats.modeled_time_s,
                  ref.stats.modeled_time_s);
    }
}

TEST(Server, PreemptionUnderKvPressure)
{
    // KV pool budget sized well below the batch working set: the
    // scheduler must preempt (evict KV, re-enqueue), and every
    // request must still complete with exactly the tokens an
    // unconstrained run produces.
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(6, 0.0, 16);

    auto opts = serverOpts(2, 4);
    serve::Server unbounded(pipe, opts);
    unbounded.submit(stream);
    auto ru = unbounded.drain();
    EXPECT_EQ(ru.fleet.preemptions, 0);
    // 8 layers x ceil(28/16) blocks ~ 16 blocks per finished seq: 4
    // sequences need ~64; a 40-block budget forces eviction.
    opts.sched.kv_budget_blocks = 40;
    serve::Server pressed(pipe, opts);
    pressed.submit(stream);
    auto rp = pressed.drain();

    EXPECT_GT(rp.fleet.preemptions, 0);
    EXPECT_LE(rp.fleet.peak_kv_blocks, 40);
    // fleet.tokens is goodput: recompute after eviction is priced
    // into the timeline but each output position counts once.
    EXPECT_EQ(rp.fleet.tokens, ru.fleet.tokens);
    EXPECT_LT(rp.fleet.tokens_per_s, ru.fleet.tokens_per_s);
    ASSERT_EQ(rp.outcomes.size(), ru.outcomes.size());
    for (size_t i = 0; i < rp.outcomes.size(); ++i) {
        EXPECT_FALSE(rp.outcomes[i].dropped);
        // Evicted-and-recomputed requests still emit identical
        // tokens (decode is a pure function of the request seed).
        EXPECT_EQ(rp.outcomes[i].result.emissions[0].tokens,
                  ru.outcomes[i].result.emissions[0].tokens);
    }
    // The wasted (re-decoded) work costs fleet time.
    EXPECT_GT(rp.fleet.makespan_s, ru.fleet.makespan_s);
    EXPECT_GT(ru.fleet.peak_kv_blocks, rp.fleet.peak_kv_blocks);
}

TEST(Server, PreemptionDeterministicAcrossWorkerCounts)
{
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(6, 0.0, 16);

    auto opts1 = serverOpts(1, 4);
    opts1.sched.kv_budget_blocks = 40;
    serve::Server one(pipe, opts1);
    one.submit(stream);
    auto r1 = one.drain();

    auto opts3 = serverOpts(3, 4);
    opts3.sched.kv_budget_blocks = 40;
    serve::Server three(pipe, opts3);
    three.submit(stream);
    auto r3 = three.drain();

    EXPECT_GT(r1.fleet.preemptions, 0);
    EXPECT_EQ(r1.fleet.preemptions, r3.fleet.preemptions);
    EXPECT_EQ(r1.fleet.peak_kv_blocks, r3.fleet.peak_kv_blocks);
    EXPECT_DOUBLE_EQ(r1.fleet.makespan_s, r3.fleet.makespan_s);
    ASSERT_EQ(r1.outcomes.size(), r3.outcomes.size());
    for (size_t i = 0; i < r1.outcomes.size(); ++i) {
        EXPECT_EQ(r1.outcomes[i].result.emissions[0].tokens,
                  r3.outcomes[i].result.emissions[0].tokens);
        EXPECT_DOUBLE_EQ(r1.outcomes[i].ttft_s, r3.outcomes[i].ttft_s);
        EXPECT_DOUBLE_EQ(r1.outcomes[i].finish_s,
                         r3.outcomes[i].finish_s);
    }
}

TEST(Server, StreamedTokensMatchGoodputUnderPreemption)
{
    // Every delivered token is streamed exactly once even when
    // sessions are evicted and re-decode their prefix.
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(6, 0.0, 16);

    auto opts = serverOpts(2, 4);
    opts.sched.kv_budget_blocks = 40;
    std::vector<serve::TokenEvent> events;
    opts.on_token = [&events](const serve::TokenEvent &ev) {
        events.push_back(ev);
        return true;
    };
    serve::Server server(pipe, opts);
    server.submit(stream);
    auto rep = server.drain();

    EXPECT_GT(rep.fleet.preemptions, 0);
    EXPECT_EQ(static_cast<long>(events.size()), rep.fleet.tokens);
    std::map<uint64_t, int> next_index;
    for (const auto &ev : events)
        EXPECT_EQ(ev.index, next_index[ev.request_id]++);
    EXPECT_EQ(rep.fleet.tokens, 6 * 16);
}

TEST(Server, QueuedDeadlineDropsWhileSlotsAreFull)
{
    // A queued request whose deadline expires while every decode
    // slot is busy is dropped at that iteration boundary, not when a
    // slot eventually frees.
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(3, 0.0, 16);
    stream[2].deadline_s = 1e-7; // expires while 0 and 1 hold slots

    serve::Server server(pipe, serverOpts(1, 2));
    server.submit(stream);
    auto rep = server.drain();

    EXPECT_EQ(rep.fleet.dropped, 1);
    const auto &o = rep.outcomes[2];
    EXPECT_TRUE(o.dropped);
    // Dropped promptly: long before the busy slots drained.
    EXPECT_LT(o.finish_s, rep.outcomes[0].finish_s);
}

TEST(Server, DeadlineDropsAtIterationBoundary)
{
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(4, 0.0, 16);
    // Request 2 carries a deadline no schedule can meet (post-hoc
    // replay could never honor this; the live loop drops it at the
    // first boundary past the deadline).
    stream[2].deadline_s = 1e-7;

    serve::Server server(pipe, serverOpts(2, 2));
    server.submit(stream);
    auto rep = server.drain();

    EXPECT_EQ(rep.fleet.dropped, 1);
    ASSERT_EQ(rep.outcomes.size(), 4u);
    for (const auto &o : rep.outcomes) {
        if (o.request.id == 2) {
            EXPECT_TRUE(o.dropped);
            EXPECT_TRUE(o.result.emissions.empty());
        } else {
            EXPECT_FALSE(o.dropped);
            EXPECT_EQ(static_cast<int>(o.result.emissions[0].tokens.size()),
                      16);
        }
    }
    // Latency stats cover completed requests only.
    EXPECT_GT(rep.fleet.p99_latency_s, 0.0);
}

TEST(Server, RetiredStreamsReportTheirDeliveredTiming)
{
    // A request that streamed tokens before it was dropped at its
    // deadline, or cancelled by its consumer, still reports TTFT and
    // mean ITL over what it delivered.
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(3, 0.0, 16);
    const uint64_t id = stream[2].id;
    uint64_t cancel_id = ~0ull;
    auto opts = serverOpts(1, 4);
    std::vector<double> emit_s; ///< request `id`'s delivery times
    opts.on_token = [&](const serve::TokenEvent &ev) {
        if (ev.request_id == id)
            emit_s.push_back(ev.emit_s);
        return !(ev.request_id == cancel_id && ev.index == 4);
    };
    const auto drain = [&] {
        emit_s.clear();
        serve::Server server(pipe, opts);
        server.submit(stream);
        return server.drain();
    };
    const auto expectDeliveredTiming = [&](const serve::RequestOutcome &o) {
        ASSERT_EQ(emit_s.size(), 5u);
        EXPECT_DOUBLE_EQ(o.ttft_s, emit_s.front() - o.request.arrival_s);
        double gaps = 0.0;
        for (size_t i = 1; i < emit_s.size(); ++i)
            gaps += emit_s[i] - emit_s[i - 1];
        EXPECT_DOUBLE_EQ(o.mean_itl_s,
                         gaps / static_cast<double>(emit_s.size() - 1));
        EXPECT_GT(o.mean_itl_s, 0.0);
    };

    drain(); // unconstrained: request `id` delivers all 16 tokens
    ASSERT_EQ(emit_s.size(), 16u);
    // The deadline passes right after the fourth token: the next
    // boundary still delivers the fifth, the one after drops it.
    stream[2].deadline_s = emit_s[3];
    const auto dropped = drain();
    EXPECT_TRUE(dropped.outcomes[2].dropped);
    expectDeliveredTiming(dropped.outcomes[2]);

    stream[2].deadline_s = 0.0;
    cancel_id = id; // the consumer refuses the fifth token
    const auto cancelled = drain();
    EXPECT_TRUE(cancelled.outcomes[2].cancelled);
    expectDeliveredTiming(cancelled.outcomes[2]);
}

TEST(Server, StreamsTokensWithTtftBelowLatency)
{
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(6, 0.0, 12);

    auto opts = serverOpts(2, 4);
    std::vector<serve::TokenEvent> events;
    opts.on_token = [&events](const serve::TokenEvent &ev) {
        events.push_back(ev);
        return true;
    };
    serve::Server server(pipe, opts);
    server.submit(stream);
    auto rep = server.drain();

    // Every decoded token streamed exactly once, clock monotone.
    EXPECT_EQ(static_cast<long>(events.size()), rep.fleet.tokens);
    std::map<uint64_t, int> next_index;
    double prev_s = 0.0;
    for (const auto &ev : events) {
        EXPECT_EQ(ev.index, next_index[ev.request_id]++);
        EXPECT_GE(ev.emit_s, prev_s);
        prev_s = ev.emit_s;
    }

    // Under batching, the first token lands well before the request
    // finishes — TTFT is a first-class metric now.
    for (const auto &o : rep.outcomes) {
        EXPECT_GT(o.ttft_s, 0.0);
        EXPECT_LT(o.ttft_s, o.latency_s);
        EXPECT_GT(o.mean_itl_s, 0.0);
    }
    EXPECT_GT(rep.fleet.mean_ttft_s, 0.0);
    EXPECT_LT(rep.fleet.mean_ttft_s, rep.fleet.mean_latency_s);
    EXPECT_LE(rep.fleet.p50_ttft_s, rep.fleet.p99_ttft_s);
    EXPECT_GT(rep.fleet.mean_itl_s, 0.0);
    EXPECT_GT(rep.fleet.peak_kv_blocks, 0);
    EXPECT_GT(rep.fleet.peak_fleet_mem_gb, 0.0);
}

TEST(Server, PreemptionVictimsAvoidNearDeadlineSessions)
{
    // Victim selection tie-breaks AWAY from near-deadline sessions
    // within the batch-tier-first rule: evicting a session with
    // seconds of slack just to re-admit it past its deadline turns a
    // recoverable preemption into a drop.
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(3, 0.0, 16);

    // Baselines: unconstrained finish of the youngest request, and
    // its finish under KV pressure while NO deadlines exist (where
    // the scan reduces to the legacy youngest-victim rule and evicts
    // exactly it).
    auto opts = serverOpts(2, 3);
    serve::Server unb(pipe, opts);
    unb.submit(stream);
    const auto ru = unb.drain();

    // 48 blocks force exactly ONE eviction on this stream — the
    // interesting case, where the scan has a real choice (a tighter
    // budget needs two victims per boundary and must take the
    // near-deadline session anyway).
    opts.sched.kv_budget_blocks = 48;
    serve::Server pressed(pipe, opts);
    pressed.submit(stream);
    const auto rp = pressed.drain();
    ASSERT_GT(rp.fleet.preemptions, 0);
    ASSERT_GT(rp.outcomes[2].preemptions, 0); // legacy victim
    const double f_unb = ru.outcomes[2].finish_s;
    const double f_legacy = rp.outcomes[2].finish_s;
    ASSERT_LT(f_unb, f_legacy);

    // A deadline the youngest request can only meet if it is NOT the
    // victim: past its unconstrained finish, before its evicted one.
    auto urgent = stream;
    urgent[2].deadline_s = f_unb + 0.9 * (f_legacy - f_unb);
    serve::Server aware(pipe, opts);
    aware.submit(urgent);
    const auto ra = aware.drain();

    // The finite-slack session is spared: an elder no-deadline peer
    // (never the protected oldest) is evicted instead, and the urgent
    // request completes in time where the legacy rule dropped it.
    EXPECT_GT(ra.fleet.preemptions, 0);
    EXPECT_EQ(ra.fleet.dropped, 0);
    EXPECT_FALSE(ra.outcomes[2].dropped);
    EXPECT_EQ(ra.outcomes[2].preemptions, 0);
    EXPECT_GT(ra.outcomes[1].preemptions, 0);
    EXPECT_LE(ra.outcomes[2].finish_s, urgent[2].deadline_s);
    ASSERT_EQ(ra.outcomes[2].result.emissions.size(), 1u);
    EXPECT_EQ(ra.outcomes[2].result.emissions[0].tokens,
              ru.outcomes[2].result.emissions[0].tokens);
}

TEST(Server, WatermarkDiscountsCachedPrefixBlocks)
{
    // The prefill-aware watermark charges every admission its FULL
    // prompt + decode KV. Blocks adopted from the prefix cache are
    // shared, not allocated — charging them again double-counts every
    // cache hit and starves admission under tight watermarks.
    const auto &pipe = testutil::tinyPipeline();
    serve::StreamOptions so;
    so.datasets = {"SUM"};
    so.n_requests = 3;
    so.gen_len = 4;
    so.prompt_len = 4096;
    so.prefix_reuse = 1.0; // one shared template across the stream
    so.seed = 0x3a7;
    auto stream = serve::synthesizeStream(so);
    // Request 0 seeds the cache; the two repeats arrive together
    // long after it retired.
    stream[1].arrival_s = stream[2].arrival_s = 10.0;

    auto opts = serverOpts(2, 4);
    opts.sched.preempt_mode = serve::PreemptMode::Swap;
    opts.sched.kv_budget_blocks = 400;
    // High-water mark (80 blocks) that fits one full prompt + one
    // discounted repeat, but not two prompts at full charge: the
    // template discounts 3 whole blocks per layer, comfortably more
    // than the cache's one-block-per-layer copy-on-write growth
    // reserve.
    opts.sched.kv_watermark = 0.2;

    serve::Server uncached(pipe, opts);
    uncached.submit(stream);
    const auto r_off = uncached.drain();
    // The first repeat bypasses the watermark (empty fleet); the
    // second is held back until it drains: the gate demonstrably
    // bites on this stream.
    ASSERT_GT(r_off.fleet.watermark_rejections, 0);
    EXPECT_EQ(r_off.fleet.dropped, 0);

    auto cached = opts;
    cached.sched.prefix_cache.enabled = true;
    cached.sched.prefix_cache.capacity_blocks = 200;
    serve::Server hit(pipe, cached);
    hit.submit(stream);
    const auto r_on = hit.drain();

    // Both repeats adopt the cached template, and the discounted
    // committed set now fits: no watermark rejections at all. (The
    // double-counting bug charged full blocks regardless and kept
    // every rejection of the uncached run.)
    EXPECT_GE(r_on.fleet.prefix_hits, 2);
    EXPECT_GT(r_on.fleet.cached_tokens, 0);
    EXPECT_EQ(r_on.fleet.watermark_rejections, 0);
    EXPECT_LT(r_on.fleet.watermark_rejections,
              r_off.fleet.watermark_rejections);
    EXPECT_EQ(r_on.fleet.tokens, r_off.fleet.tokens);
    EXPECT_EQ(r_on.fleet.dropped, 0);
}
