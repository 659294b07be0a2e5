/**
 * @file
 * Observability subsystem: trace ordering (sortTrace), Chrome
 * trace-event JSON schema for every event kind, timeline window
 * bucketing at boundaries, SLO judging on hand-built outcomes, and
 * end-to-end pins on a real tiny server — tracing/timeline/SLO are
 * bit-inert on the modeled run, and the trace is bit-identical
 * across worker counts (the workers=3 runs also give TSan traced
 * drains under real parallel workers to check).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/slo.hh"
#include "obs/timeline.hh"
#include "obs/trace.hh"
#include "serve/server.hh"
#include "test_util.hh"

using namespace specee;

// ---------------------------------------------------------------- SLO

TEST(Slo, SpecAnyAndTierIndexing)
{
    obs::SloSpec none;
    EXPECT_FALSE(none.any());
    obs::SloSpec ttft;
    ttft.ttft_s = 0.5;
    EXPECT_TRUE(ttft.any());

    obs::TierSlo tiers;
    EXPECT_FALSE(tiers.any());
    tiers.batch.deadline_s = 10.0;
    EXPECT_TRUE(tiers.any());
    EXPECT_FALSE(tiers.tier(0).any());
    EXPECT_TRUE(tiers.tier(1).any());
}

TEST(Slo, JudgeVerdicts)
{
    obs::SloSpec spec;
    spec.ttft_s = 1.0;
    spec.itl_s = 0.1;
    spec.deadline_s = 5.0;

    // All objectives met.
    auto v = obs::judge(spec, true, 0.5, 0.05, 4.0);
    EXPECT_TRUE(v.evaluated);
    EXPECT_TRUE(v.ttft_ok);
    EXPECT_TRUE(v.itl_ok);
    EXPECT_TRUE(v.deadline_ok);
    EXPECT_TRUE(v.attained());

    // Exactly at the bound attains (<=, not <).
    v = obs::judge(spec, true, 1.0, 0.1, 5.0);
    EXPECT_TRUE(v.attained());

    // Each objective fails independently.
    v = obs::judge(spec, true, 1.5, 0.05, 4.0);
    EXPECT_FALSE(v.ttft_ok);
    EXPECT_TRUE(v.itl_ok);
    EXPECT_FALSE(v.attained());
    v = obs::judge(spec, true, 0.5, 0.2, 4.0);
    EXPECT_FALSE(v.itl_ok);
    EXPECT_FALSE(v.attained());
    v = obs::judge(spec, true, 0.5, 0.05, 6.0);
    EXPECT_FALSE(v.deadline_ok);
    EXPECT_FALSE(v.attained());

    // An unfinished request fails every configured objective, even
    // with perfect partial latencies.
    v = obs::judge(spec, false, 0.1, 0.01, 0.5);
    EXPECT_TRUE(v.evaluated);
    EXPECT_FALSE(v.attained());

    // No objectives: unevaluated, attains vacuously.
    v = obs::judge(obs::SloSpec{}, true, 100.0, 100.0, 100.0);
    EXPECT_FALSE(v.evaluated);
    EXPECT_TRUE(v.attained());

    // Partial spec: only the configured objective is judged.
    obs::SloSpec only_ttft;
    only_ttft.ttft_s = 1.0;
    v = obs::judge(only_ttft, true, 0.5, 99.0, 99.0);
    EXPECT_TRUE(v.attained());
}

// -------------------------------------------------------------- trace

TEST(Trace, SortOrdersByTimeTrackKindAndKeepsEmissionOrderOnTies)
{
    // `request` records each event's emission index.
    std::vector<obs::TraceEvent> events;
    const auto mk = [&](double t0, int device, obs::TraceKind kind) {
        obs::TraceEvent ev;
        ev.kind = kind;
        ev.t0 = t0;
        ev.device = device;
        ev.request = events.size();
        events.push_back(ev);
    };
    mk(2.0, 0, obs::TraceKind::Step);       // 0
    mk(1.0, 1, obs::TraceKind::Step);       // 1
    mk(1.0, 0, obs::TraceKind::Transfer);   // 2
    mk(1.0, 0, obs::TraceKind::Step);       // 3
    mk(1.0, -1, obs::TraceKind::Decision);  // 4
    mk(1.0, 0, obs::TraceKind::Step);       // 5: ties with 3
    mk(1.0, -1, obs::TraceKind::Iteration); // 6
    mk(1.0, -1, obs::TraceKind::Decision);  // 7: ties with 4
    mk(1.0, 0, obs::TraceKind::Step);       // 8: ties with 3 and 5

    obs::sortTrace(events);
    std::vector<uint64_t> order;
    for (const auto &e : events)
        order.push_back(e.request);
    // Time first, then track (fleet -1 before devices), then kind
    // (Iteration < Step < Transfer < Decision); ties stay in emission
    // order.
    EXPECT_EQ(order, (std::vector<uint64_t>{6, 4, 7, 3, 5, 8, 2, 1, 0}));
}

TEST(Trace, ChromeJsonSchemaCoversEveryKind)
{
    std::vector<obs::TraceEvent> evs;
    {
        obs::TraceEvent it;
        it.kind = obs::TraceKind::Iteration;
        it.t0 = 0.0;
        it.t1 = 0.001;
        it.batch = 3;
        it.prefilling = 1;
        it.tokens = 4;
        evs.push_back(it);

        obs::TraceEvent step;
        step.kind = obs::TraceKind::Step;
        step.t0 = 0.0;
        step.t1 = 0.0005;
        step.device = 1;
        step.lane = 2;
        step.request = 42;
        step.tokens = 1;
        step.deepest_layer = 5;
        step.stages_used = 1;
        step.op_s = {{0, 0.0003}, {3, 0.0002}};
        evs.push_back(step);

        obs::TraceEvent chunk = step;
        chunk.kind = obs::TraceKind::PrefillChunk;
        chunk.device = 0;
        chunk.lane = 0;
        evs.push_back(chunk);

        obs::TraceEvent xf;
        xf.kind = obs::TraceKind::Transfer;
        xf.t0 = 0.0002;
        xf.t1 = 0.0008;
        xf.device = 1;
        xf.channel = 0;
        xf.request = 42;
        evs.push_back(xf);

        obs::TraceEvent dec;
        dec.kind = obs::TraceKind::Decision;
        dec.t0 = dec.t1 = 0.0;
        dec.decision = obs::TraceDecision::Admit;
        dec.request = 42;
        evs.push_back(dec);

        obs::TraceEvent flow;
        flow.kind = obs::TraceKind::RequestFlow;
        flow.t0 = 0.0;
        flow.t1 = 0.001;
        flow.device = 1;
        flow.request = 42;
        evs.push_back(flow);
    }
    const std::string js =
        obs::chromeTraceJson(evs, /*n_devices=*/2,
                             /*n_prefill_devices=*/1);

    // Top-level Chrome trace shape.
    EXPECT_NE(js.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(js.find("\"displayTimeUnit\""), std::string::npos);
    // Process/thread metadata: fleet + both device roles.
    EXPECT_NE(js.find("\"fleet scheduler\""), std::string::npos);
    EXPECT_NE(js.find("\"decode device 0\""), std::string::npos);
    EXPECT_NE(js.find("\"prefill device 0\""), std::string::npos);
    // One phase letter per kind: complete spans, instant, flow pair.
    EXPECT_NE(js.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(js.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(js.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(js.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(js.find("\"ph\":\"M\""), std::string::npos);
    // Named events and op-class cost args.
    EXPECT_NE(js.find("\"iteration\""), std::string::npos);
    EXPECT_NE(js.find("\"step\""), std::string::npos);
    EXPECT_NE(js.find("\"prefill_chunk\""), std::string::npos);
    EXPECT_NE(js.find("\"transfer\""), std::string::npos);
    EXPECT_NE(js.find("\"admit\""), std::string::npos);
    EXPECT_NE(js.find("\"request\""), std::string::npos);
    EXPECT_NE(js.find("\"op."), std::string::npos);
    EXPECT_NE(js.find("\"deepest_layer\""), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness check; CI
    // additionally json.load()s a real emitted trace).
    long depth = 0;
    bool in_str = false;
    for (size_t i = 0; i < js.size(); ++i) {
        const char c = js[i];
        if (in_str) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_str = false;
            continue;
        }
        if (c == '"')
            in_str = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_str);
}

TEST(Trace, WriteChromeTraceRoundTrips)
{
    std::vector<obs::TraceEvent> evs(1);
    const std::string path = "test_obs_trace_tmp.json";
    ASSERT_TRUE(obs::writeChromeTrace(path, evs, 1, 0));
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    EXPECT_GT(std::ftell(f), 0);
    std::fclose(f);
    std::remove(path.c_str());
    // Unwritable destination reports failure instead of dying.
    EXPECT_FALSE(
        obs::writeChromeTrace("/nonexistent-dir/x.json", evs, 1, 0));
}

// ----------------------------------------------------------- timeline

TEST(Timeline, DisabledRecordsNothing)
{
    obs::Timeline tl; // default: disabled
    EXPECT_FALSE(tl.enabled());
    tl.recordIteration(0.5, 3, 1, 10, 0, 0);
    tl.recordTokens(0.5, 1, 4);
    EXPECT_TRUE(tl.finalize(1.0, nullptr).empty());
}

TEST(Timeline, BucketBoundariesAndExtension)
{
    obs::TimelineOptions opts;
    opts.window_s = 1.0;
    obs::Timeline tl(opts, /*t0=*/0.0, /*n_layers=*/4, /*n_stages=*/2);

    tl.recordIteration(0.0, 2, 1, 10, 0, 0);   // window 0
    tl.recordIteration(0.999, 4, 2, 20, 5, 0); // window 0
    tl.recordIteration(1.0, 6, 1, 30, 0, 0);   // boundary -> window 1
    tl.recordIteration(2.5, 1, 1, 5, 0, 0);    // window 2
    tl.recordExit(0.5, 3);
    tl.recordTtft(1.2, 0.4);
    tl.recordItl(1.2, 0.1);
    tl.recordItl(1.3, 0.3);
    tl.recordTokens(2.5, /*request=*/7, 4);
    // A transfer spanning windows 0 and 1 is clipped at the seam.
    tl.recordTransfer(0.75, 1.25);

    // finalize() extends to end_t: 3.2 -> 4 windows.
    const auto w = tl.finalize(3.2, nullptr);
    ASSERT_EQ(w.size(), 4u);

    EXPECT_DOUBLE_EQ(w[0].t0, 0.0);
    EXPECT_DOUBLE_EQ(w[0].t1, 1.0);
    EXPECT_EQ(w[0].iterations, 2);
    EXPECT_DOUBLE_EQ(w[0].mean_batch_occupancy, 3.0); // (2+4)/2
    // Stage occupancy: (1+2) busy of 2 iterations x 2 stages.
    EXPECT_DOUBLE_EQ(w[0].stage_occupancy, 0.75);
    EXPECT_EQ(w[0].peak_kv_blocks, 20);
    EXPECT_EQ(w[0].peak_host_kv_blocks, 5);
    ASSERT_EQ(w[0].exit_hist.size(), 5u); // layers 0..4
    EXPECT_EQ(w[0].exit_hist[3], 1);
    EXPECT_DOUBLE_EQ(w[0].transfer_busy_s, 0.25);

    EXPECT_EQ(w[1].iterations, 1); // the boundary sample
    EXPECT_EQ(w[1].ttft_count, 1);
    EXPECT_DOUBLE_EQ(w[1].p50_ttft_s, 0.4);
    EXPECT_EQ(w[1].itl_count, 2);
    EXPECT_DOUBLE_EQ(w[1].p50_itl_s, 0.2); // interpolated (0.1, 0.3)
    EXPECT_DOUBLE_EQ(w[1].transfer_busy_s, 0.25);

    EXPECT_EQ(w[2].iterations, 1);
    EXPECT_EQ(w[2].tokens, 4);
    // Null attainment callback counts every token.
    EXPECT_EQ(w[2].slo_tokens, 4);
    EXPECT_DOUBLE_EQ(w[2].goodput_tps, 4.0); // 4 tokens / 1 s window

    // The extension window is empty but spans to end_t's window.
    EXPECT_EQ(w[3].iterations, 0);
    EXPECT_EQ(w[3].tokens, 0);
    EXPECT_DOUBLE_EQ(w[3].t1, 4.0);
}

TEST(Timeline, SloAttributionIsPerRequest)
{
    obs::TimelineOptions opts;
    opts.window_s = 1.0;
    obs::Timeline tl(opts, 0.0, 1, 1);
    tl.recordTokens(0.5, /*request=*/1, 3);
    tl.recordTokens(0.6, /*request=*/2, 5);
    const auto w =
        tl.finalize(1.0, [](uint64_t id) { return id == 2; });
    ASSERT_EQ(w.size(), 1u);
    EXPECT_EQ(w[0].tokens, 8);
    EXPECT_EQ(w[0].slo_tokens, 5);
    EXPECT_DOUBLE_EQ(w[0].goodput_under_slo, 5.0);
}

TEST(Timeline, TruncatedFinalWindowRatesUseCoveredSpan)
{
    obs::TimelineOptions opts;
    opts.window_s = 1.0;
    obs::Timeline tl(opts, 0.0, 1, 1);
    tl.recordTokens(0.1, /*request=*/1, 4); // window 0, fully covered
    tl.recordTokens(1.1, /*request=*/1, 5); // window 1, run ends 1.25
    const auto w = tl.finalize(1.25, nullptr);
    ASSERT_EQ(w.size(), 2u);
    EXPECT_DOUBLE_EQ(w[0].goodput_tps, 4.0);
    // The run covers only [1.0, 1.25) of the last window: 5 tokens
    // over 0.25 s is 20 tok/s. The old full-width division deflated
    // this to 5 tok/s — a 4x underreport of the closing rate.
    EXPECT_DOUBLE_EQ(w[1].goodput_tps, 20.0);
    EXPECT_DOUBLE_EQ(w[1].goodput_under_slo, 20.0);
    // Window bounds stay the nominal grid; only the rates rescale.
    EXPECT_DOUBLE_EQ(w[1].t0, 1.0);
    EXPECT_DOUBLE_EQ(w[1].t1, 2.0);
}

TEST(Timeline, ReduceIsTheOnlineSamplingKernel)
{
    obs::TimelineOptions opts;
    opts.window_s = 0.5;
    obs::Timeline tl(opts, 0.0, 1, 1);
    tl.recordTokens(0.6, /*request=*/1, 3);
    tl.recordTokens(0.7, /*request=*/2, 1);
    tl.recordIteration(0.6, 2, 1, 8, 0, 0);
    // Sampling window 1 mid-window (covered span 0.25 s) — what the
    // adaptive controller reads at a decision epoch.
    const auto win =
        tl.reduce(1, 0.75, [](uint64_t id) { return id == 1; });
    EXPECT_EQ(win.tokens, 4);
    EXPECT_EQ(win.slo_tokens, 3);
    EXPECT_DOUBLE_EQ(win.goodput_tps, 16.0);
    EXPECT_DOUBLE_EQ(win.goodput_under_slo, 12.0);
    EXPECT_EQ(win.iterations, 1);
    // An index past every recorded bucket is an empty window (full-
    // width fallback keeps the division defined), not an error.
    const auto empty = tl.reduce(7, 0.75, nullptr);
    EXPECT_EQ(empty.tokens, 0);
    EXPECT_DOUBLE_EQ(empty.goodput_tps, 0.0);
    EXPECT_DOUBLE_EQ(empty.t0, 3.5);
}

// -------------------------------------------- end-to-end server pins

namespace {

serve::ServerOptions
obsServerOpts(int workers)
{
    serve::ServerOptions o;
    o.engine = engines::EngineConfig::huggingFace().withSpecEE();
    o.spec = hw::HardwareSpec::a100();
    o.workers = workers;
    o.sched.max_batch = 4;
    o.sched.prefill.chunk_tokens = 128;
    o.sched.kv_budget_blocks = 150; // tight: preemptions fire
    o.sched.preempt_mode = serve::PreemptMode::Swap;
    return o;
}

std::vector<serve::Request>
obsStream()
{
    serve::StreamOptions shorts;
    shorts.n_requests = 4;
    shorts.gen_len = 10;
    shorts.rate_rps = 6.0;
    shorts.seed = 0x0b5;
    serve::StreamOptions longs;
    longs.n_requests = 3;
    longs.gen_len = 12;
    longs.prompt_len = 2048;
    longs.priority = serve::Priority::Batch;
    longs.id_base = 100;
    longs.seed = 0x0b6;
    return serve::mergeStreams(serve::synthesizeStream(shorts),
                               serve::synthesizeStream(longs));
}

} // namespace

TEST(ObsEndToEnd, KnobsAreBitInertOnTheModeledRun)
{
    // The SPECEE_TRACE env override would force tracing into the
    // "off" control run; neutralize it for this comparison only.
    const testutil::ScopedUnsetenv no_trace("SPECEE_TRACE");
    const auto &pipe = testutil::tinyPipeline();
    const auto stream = obsStream();

    auto off = obsServerOpts(3);
    serve::Server s_off(pipe, off);
    s_off.submit(stream);
    const auto r_off = s_off.drain();

    auto on = obsServerOpts(3);
    on.sched.trace.enabled = true;
    on.sched.timeline.window_s = 0.2;
    on.sched.slo.interactive.ttft_s = 0.75;
    on.sched.slo.interactive.itl_s = 0.2;
    on.sched.slo.batch.deadline_s = 20.0;
    serve::Server s_on(pipe, on);
    s_on.submit(stream);
    const auto r_on = s_on.drain();

    // The modeled run is bitwise unchanged...
    EXPECT_DOUBLE_EQ(r_off.fleet.makespan_s, r_on.fleet.makespan_s);
    EXPECT_DOUBLE_EQ(r_off.fleet.energy_j, r_on.fleet.energy_j);
    EXPECT_EQ(r_off.fleet.tokens, r_on.fleet.tokens);
    EXPECT_EQ(r_off.fleet.iterations, r_on.fleet.iterations);
    EXPECT_EQ(r_off.fleet.preemptions, r_on.fleet.preemptions);
    EXPECT_DOUBLE_EQ(r_off.fleet.p99_ttft_s, r_on.fleet.p99_ttft_s);
    EXPECT_DOUBLE_EQ(r_off.fleet.p99_itl_s, r_on.fleet.p99_itl_s);
    ASSERT_EQ(r_off.outcomes.size(), r_on.outcomes.size());
    for (size_t i = 0; i < r_off.outcomes.size(); ++i) {
        const auto &a = r_off.outcomes[i];
        const auto &b = r_on.outcomes[i];
        ASSERT_EQ(a.result.emissions.size(), 1u);
        EXPECT_EQ(a.result.emissions[0].tokens,
                  b.result.emissions[0].tokens);
        EXPECT_DOUBLE_EQ(a.finish_s, b.finish_s);
        // ... while only the observability outputs differ.
        EXPECT_FALSE(a.slo.evaluated);
        EXPECT_TRUE(b.slo.evaluated);
    }
    EXPECT_TRUE(r_off.fleet.trace.empty());
    EXPECT_TRUE(r_off.fleet.timeline.empty());
    EXPECT_EQ(r_off.fleet.slo_evaluated, 0);
    EXPECT_FALSE(r_on.fleet.trace.empty());
    EXPECT_FALSE(r_on.fleet.timeline.empty());
    EXPECT_GT(r_on.fleet.slo_evaluated, 0);
}

TEST(ObsEndToEnd, MergedTraceIsIdenticalAcrossWorkerCounts)
{
    // Tracing is already on in-code, so a SPECEE_TRACE set for the
    // process only makes each drain also export its trace there.
    const auto &pipe = testutil::tinyPipeline();
    const auto stream = obsStream();

    serve::ServeReport reps[2];
    const int workers[2] = {1, 3};
    for (int i = 0; i < 2; ++i) {
        auto o = obsServerOpts(workers[i]);
        o.sched.trace.enabled = true;
        o.sched.timeline.window_s = 0.2;
        serve::Server s(pipe, o);
        s.submit(stream);
        reps[i] = s.drain();
    }
    const auto &a = reps[0].fleet.trace;
    const auto &b = reps[1].fleet.trace;
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind) << i;
        EXPECT_DOUBLE_EQ(a[i].t0, b[i].t0) << i;
        EXPECT_DOUBLE_EQ(a[i].t1, b[i].t1) << i;
        EXPECT_EQ(a[i].device, b[i].device) << i;
        EXPECT_EQ(a[i].lane, b[i].lane) << i;
        EXPECT_EQ(a[i].request, b[i].request) << i;
        EXPECT_EQ(a[i].op_s, b[i].op_s) << i;
    }
    // And the rendered artifact is byte-identical.
    EXPECT_EQ(obs::chromeTraceJson(a, 1, 0),
              obs::chromeTraceJson(b, 1, 0));
}

TEST(ObsEndToEnd, ServerWritesTraceFile)
{
    // The env override would win over the option's path.
    const testutil::ScopedUnsetenv no_trace("SPECEE_TRACE");
    const auto &pipe = testutil::tinyPipeline();
    auto o = obsServerOpts(2);
    o.trace_path = "test_obs_server_trace.json";
    serve::Server s(pipe, o);
    s.submit(obsStream());
    const auto rep = s.drain();
    // The path forces tracing on even though sched.trace was off.
    EXPECT_FALSE(rep.fleet.trace.empty());
    std::FILE *f = std::fopen(o.trace_path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    EXPECT_GT(std::ftell(f), 0);
    std::fclose(f);
    std::remove(o.trace_path.c_str());
}
