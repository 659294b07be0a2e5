/**
 * @file
 * AdaptiveController: Thompson-sampling unit behavior (posterior
 * arithmetic, frozen knobs, idle windows as non-evidence, trajectory
 * determinism, convergence onto the rewarding arm) and end-to-end
 * scheduler pins — a disabled controller is bit-inert on the modeled
 * run, an enabled one produces a worker-count-invariant knob
 * trajectory whose knob_change trace decisions reconcile with it.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "obs/timeline.hh"
#include "obs/trace.hh"
#include "serve/controller.hh"
#include "serve/server.hh"
#include "test_util.hh"

using namespace specee;
using serve::AdaptiveController;
using serve::ControllerKnobs;
using serve::ControllerOptions;
using KnobId = serve::AdaptiveController::KnobId;

namespace {

obs::TimelineWindow
window(long tokens, long slo_tokens, long iterations)
{
    obs::TimelineWindow w;
    w.tokens = tokens;
    w.slo_tokens = slo_tokens;
    w.iterations = iterations;
    return w;
}

/** One arm per knob: deterministic knob values, pure posterior math. */
ControllerOptions
singleArmOpts()
{
    ControllerOptions o;
    o.enabled = true;
    o.epoch_s = 0.25;
    o.chunk_arms = {64};
    o.interactive_exit_arms = {0.4f};
    o.batch_exit_arms = {0.6f};
    return o;
}

ControllerKnobs
chunkedDefaults()
{
    ControllerKnobs d;
    d.chunk_tokens = 128;
    d.interactive_exit_threshold = 0.5f;
    d.batch_exit_threshold = 0.5f;
    return d;
}

} // namespace

TEST(Controller, DisabledByDefault)
{
    AdaptiveController c;
    EXPECT_FALSE(c.enabled());
    // The default-constructed knob set is the scheduler's "no
    // override" sentinel.
    EXPECT_EQ(c.knobs().chunk_tokens, 0);
    EXPECT_FLOAT_EQ(c.knobs().interactive_exit_threshold, 0.0f);
    EXPECT_EQ(c.stats().epochs, 0);
}

TEST(Controller, EmptyArmSetsFreezeEveryKnob)
{
    ControllerOptions o;
    o.enabled = true;
    AdaptiveController c(o, chunkedDefaults());
    ASSERT_TRUE(c.enabled());
    for (int k = 0; k < AdaptiveController::kNumKnobs; ++k)
        EXPECT_FALSE(c.knobActive(static_cast<KnobId>(k))) << k;
    // Deciding with no active knobs never moves anything: the knobs
    // hold the scheduler's static values forever.
    EXPECT_EQ(c.decide(0.25, window(10, 5, 2)), 0);
    EXPECT_EQ(c.knobs().chunk_tokens, 128);
    EXPECT_FLOAT_EQ(c.knobs().interactive_exit_threshold, 0.5f);
    EXPECT_EQ(c.stats().epochs, 1);
    EXPECT_EQ(c.stats().knob_changes, 0);
}

TEST(Controller, ChunkKnobFreezesOnUnchunkedSchedulers)
{
    ControllerOptions o = singleArmOpts();
    ControllerKnobs unchunked = chunkedDefaults();
    unchunked.chunk_tokens = 0; // scheduler runs without chunking
    AdaptiveController c(o, unchunked);
    EXPECT_FALSE(c.knobActive(KnobId::Chunk));
    EXPECT_TRUE(c.knobActive(KnobId::InteractiveExit));
    // Chunking on/off is structural: the knob must never turn it on.
    c.decide(0.25, window(10, 10, 2));
    EXPECT_EQ(c.knobs().chunk_tokens, 0);

    AdaptiveController chunked(o, chunkedDefaults());
    EXPECT_TRUE(chunked.knobActive(KnobId::Chunk));
    chunked.decide(0.25, window(10, 10, 2));
    EXPECT_EQ(chunked.knobs().chunk_tokens, 64);
}

TEST(Controller, PosteriorsFollowWindowRewards)
{
    AdaptiveController c(singleArmOpts(), chunkedDefaults());

    // Epoch 0: no arm was live during the first window (nothing was
    // sampled yet), so the uniform Beta(1, 1) prior must survive it
    // untouched no matter what the window says.
    c.decide(0.25, window(10, 5, 3));
    for (int k = 0; k < AdaptiveController::kNumKnobs; ++k)
        EXPECT_DOUBLE_EQ(
            c.posteriorMean(static_cast<KnobId>(k), 0), 0.5)
            << k;
    // Single-arm knobs moved onto their only arm.
    EXPECT_EQ(c.knobs().chunk_tokens, 64);
    EXPECT_FLOAT_EQ(c.knobs().interactive_exit_threshold, 0.4f);
    EXPECT_FLOAT_EQ(c.knobs().batch_exit_threshold, 0.6f);

    // Epoch 1: perfect attainment -> alpha += 1 on every live arm.
    c.decide(0.5, window(8, 8, 2));
    for (int k = 0; k < AdaptiveController::kNumKnobs; ++k)
        EXPECT_DOUBLE_EQ(
            c.posteriorMean(static_cast<KnobId>(k), 0), 2.0 / 3.0)
            << k;
    EXPECT_DOUBLE_EQ(c.stats().trajectory[1].reward, 1.0);
    EXPECT_TRUE(c.stats().trajectory[1].reward_valid);

    // Epoch 2: fractional attainment folds in fractionally:
    // Beta(2, 1) + (r = 0.25) -> Beta(2.25, 1.75), mean 0.5625.
    c.decide(0.75, window(4, 1, 2));
    for (int k = 0; k < AdaptiveController::kNumKnobs; ++k)
        EXPECT_DOUBLE_EQ(
            c.posteriorMean(static_cast<KnobId>(k), 0), 0.5625)
            << k;
}

TEST(Controller, StarvationIsZeroRewardButIdleIsNoEvidence)
{
    AdaptiveController c(singleArmOpts(), chunkedDefaults());
    c.decide(0.25, window(10, 10, 2)); // arms go live

    // Iterations without tokens: the fleet ran and delivered
    // nothing — reward 0 is real evidence against the live arms.
    c.decide(0.5, window(0, 0, 4));
    EXPECT_TRUE(c.stats().trajectory[1].reward_valid);
    EXPECT_DOUBLE_EQ(c.stats().trajectory[1].reward, 0.0);
    EXPECT_DOUBLE_EQ(c.posteriorMean(KnobId::InteractiveExit, 0),
                     1.0 / 3.0);

    // A fully idle window (no iterations at all) is not evidence:
    // posteriors must hold still.
    c.decide(0.75, window(0, 0, 0));
    EXPECT_FALSE(c.stats().trajectory[2].reward_valid);
    EXPECT_DOUBLE_EQ(c.posteriorMean(KnobId::InteractiveExit, 0),
                     1.0 / 3.0);
}

TEST(Controller, TrajectoryIsDeterministicForFixedInputs)
{
    ControllerOptions o;
    o.enabled = true;
    o.seed = 7;
    o.epoch_s = 0.1;
    o.chunk_arms = {32, 64, 256};
    o.interactive_exit_arms = {0.3f, 0.7f};
    o.batch_exit_arms = {0.3f, 0.7f};

    AdaptiveController a(o, chunkedDefaults());
    AdaptiveController b(o, chunkedDefaults());
    for (int i = 0; i < 40; ++i) {
        // A deterministic but varied window stream.
        const long toks = (i * 7) % 13;
        const auto w = window(toks, toks - (i % 3 == 0 ? toks / 2 : 0),
                              1 + i % 4);
        a.decide(0.1 * (i + 1), w);
        b.decide(0.1 * (i + 1), w);
    }
    const auto &ta = a.stats().trajectory;
    const auto &tb = b.stats().trajectory;
    ASSERT_EQ(ta.size(), 40u);
    ASSERT_EQ(tb.size(), 40u);
    for (size_t i = 0; i < ta.size(); ++i) {
        EXPECT_EQ(ta[i].knobs.chunk_tokens, tb[i].knobs.chunk_tokens)
            << i;
        EXPECT_FLOAT_EQ(ta[i].knobs.interactive_exit_threshold,
                        tb[i].knobs.interactive_exit_threshold)
            << i;
        EXPECT_FLOAT_EQ(ta[i].knobs.batch_exit_threshold,
                        tb[i].knobs.batch_exit_threshold)
            << i;
        EXPECT_EQ(ta[i].changed, tb[i].changed) << i;
        EXPECT_DOUBLE_EQ(ta[i].reward, tb[i].reward) << i;
    }
    EXPECT_EQ(a.stats().knob_changes, b.stats().knob_changes);
}

TEST(Controller, EveryChosenValueIsAMemberOfItsArmSet)
{
    ControllerOptions o;
    o.enabled = true;
    o.seed = 3;
    o.epoch_s = 0.1;
    o.chunk_arms = {32, 128};
    o.interactive_exit_arms = {0.3f, 0.5f};
    o.batch_exit_arms = {0.5f, 0.7f};
    AdaptiveController c(o, chunkedDefaults());

    long changed_sum = 0;
    for (int i = 0; i < 60; ++i) {
        const long toks = 5 + (i % 9);
        changed_sum +=
            c.decide(0.1 * (i + 1), window(toks, toks / 2, 2));
    }
    const auto &st = c.stats();
    EXPECT_EQ(st.epochs, 60);
    ASSERT_EQ(st.trajectory.size(), 60u);
    EXPECT_EQ(st.knob_changes, changed_sum);
    for (const auto &ep : st.trajectory) {
        EXPECT_TRUE(ep.knobs.chunk_tokens == 32 ||
                    ep.knobs.chunk_tokens == 128);
        EXPECT_TRUE(ep.knobs.interactive_exit_threshold == 0.3f ||
                    ep.knobs.interactive_exit_threshold == 0.5f);
        EXPECT_TRUE(ep.knobs.batch_exit_threshold == 0.5f ||
                    ep.knobs.batch_exit_threshold == 0.7f);
    }
    for (int k = 0; k < AdaptiveController::kNumKnobs; ++k)
        for (size_t arm = 0; arm < 2; ++arm) {
            const double m =
                c.posteriorMean(static_cast<KnobId>(k), arm);
            EXPECT_GT(m, 0.0);
            EXPECT_LT(m, 1.0);
        }
}

TEST(Controller, ThompsonConvergesOnTheRewardingArm)
{
    ControllerOptions o;
    o.enabled = true;
    o.seed = 11;
    o.epoch_s = 0.1;
    o.chunk_arms = {64, 256}; // arm 1 is the rewarding one
    AdaptiveController c(o, chunkedDefaults());

    c.decide(0.1, window(0, 0, 0)); // go live (no evidence yet)
    int good_late = 0;
    const int kEpochs = 300, kTail = 100;
    for (int i = 1; i <= kEpochs; ++i) {
        // The environment pays off only when the live chunk size is
        // 256: the bandit sees attainment 1.0 under arm 1, 0.0 under
        // arm 0.
        const bool good = c.knobs().chunk_tokens == 256;
        if (good && i > kEpochs - kTail)
            ++good_late;
        c.decide(0.1 * (i + 1), window(100, good ? 100 : 0, 10));
    }
    EXPECT_GT(c.posteriorMean(KnobId::Chunk, 1),
              c.posteriorMean(KnobId::Chunk, 0));
    EXPECT_GT(c.posteriorMean(KnobId::Chunk, 1), 0.8);
    // Late in the run the rewarding arm dominates the choices.
    EXPECT_GT(good_late, kTail / 2);
}

// -------------------------------------------- end-to-end scheduler

namespace {

serve::ServerOptions
ctlServerOpts(int workers)
{
    serve::ServerOptions o;
    o.engine = engines::EngineConfig::huggingFace().withSpecEE();
    o.spec = hw::HardwareSpec::a100();
    o.workers = workers;
    o.sched.max_batch = 4;
    o.sched.prefill.chunk_tokens = 128;
    o.sched.kv_budget_blocks = 150;
    o.sched.preempt_mode = serve::PreemptMode::Swap;
    o.sched.slo.interactive.ttft_s = 0.75;
    o.sched.slo.interactive.itl_s = 0.2;
    o.sched.slo.batch.deadline_s = 20.0;
    return o;
}

ControllerOptions
ctlOpts()
{
    ControllerOptions c;
    c.enabled = true;
    c.seed = 5;
    c.epoch_s = 0.1;
    c.chunk_arms = {64, 128, 256};
    c.interactive_exit_arms = {0.3f, 0.6f};
    c.batch_exit_arms = {0.3f, 0.6f};
    return c;
}

std::vector<serve::Request>
ctlStream()
{
    serve::StreamOptions shorts;
    shorts.n_requests = 5;
    shorts.gen_len = 10;
    shorts.rate_rps = 6.0;
    shorts.seed = 0xc71;
    serve::StreamOptions longs;
    longs.n_requests = 3;
    longs.gen_len = 12;
    longs.prompt_len = 2048;
    longs.priority = serve::Priority::Batch;
    longs.id_base = 100;
    longs.seed = 0xc72;
    return serve::mergeStreams(serve::synthesizeStream(shorts),
                               serve::synthesizeStream(longs));
}

} // namespace

TEST(ControllerEndToEnd, DisabledControllerIsBitInert)
{
    const testutil::ScopedUnsetenv no_trace("SPECEE_TRACE");
    const auto &pipe = testutil::tinyPipeline();
    const auto stream = ctlStream();

    serve::Server plain(pipe, ctlServerOpts(3));
    plain.submit(stream);
    const auto r_plain = plain.drain();

    // Same scheduler with the controller CONFIGURED but disabled —
    // arm sets present, epoch set, master switch off. The modeled run
    // must survive bit-identically.
    auto off = ctlServerOpts(3);
    off.sched.controller = ctlOpts();
    off.sched.controller.enabled = false;
    serve::Server s_off(pipe, off);
    s_off.submit(stream);
    const auto r_off = s_off.drain();

    EXPECT_DOUBLE_EQ(r_plain.fleet.makespan_s, r_off.fleet.makespan_s);
    EXPECT_DOUBLE_EQ(r_plain.fleet.energy_j, r_off.fleet.energy_j);
    EXPECT_EQ(r_plain.fleet.tokens, r_off.fleet.tokens);
    EXPECT_EQ(r_plain.fleet.iterations, r_off.fleet.iterations);
    EXPECT_EQ(r_plain.fleet.preemptions, r_off.fleet.preemptions);
    EXPECT_DOUBLE_EQ(r_plain.fleet.p99_ttft_s, r_off.fleet.p99_ttft_s);
    EXPECT_DOUBLE_EQ(r_plain.fleet.p99_itl_s, r_off.fleet.p99_itl_s);
    ASSERT_EQ(r_plain.outcomes.size(), r_off.outcomes.size());
    for (size_t i = 0; i < r_plain.outcomes.size(); ++i) {
        const auto &a = r_plain.outcomes[i];
        const auto &b = r_off.outcomes[i];
        ASSERT_EQ(a.result.emissions.size(), 1u);
        EXPECT_EQ(a.result.emissions[0].tokens,
                  b.result.emissions[0].tokens);
        EXPECT_DOUBLE_EQ(a.finish_s, b.finish_s);
    }
    EXPECT_EQ(r_off.fleet.controller.epochs, 0);
    EXPECT_TRUE(r_off.fleet.controller.trajectory.empty());
}

TEST(ControllerEndToEnd, TrajectoryIsWorkerCountInvariant)
{
    const testutil::ScopedUnsetenv no_trace("SPECEE_TRACE");
    const auto &pipe = testutil::tinyPipeline();
    const auto stream = ctlStream();

    serve::ServeReport reps[2];
    const int workers[2] = {1, 3};
    for (int i = 0; i < 2; ++i) {
        auto o = ctlServerOpts(workers[i]);
        o.sched.controller = ctlOpts();
        serve::Server s(pipe, o);
        s.submit(stream);
        reps[i] = s.drain();
    }
    const auto &a = reps[0].fleet.controller;
    const auto &b = reps[1].fleet.controller;
    ASSERT_GT(a.epochs, 0);
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
    EXPECT_EQ(a.knob_changes, b.knob_changes);
    for (size_t i = 0; i < a.trajectory.size(); ++i) {
        const auto &x = a.trajectory[i];
        const auto &y = b.trajectory[i];
        EXPECT_DOUBLE_EQ(x.t, y.t) << i;
        EXPECT_DOUBLE_EQ(x.reward, y.reward) << i;
        EXPECT_EQ(x.reward_valid, y.reward_valid) << i;
        EXPECT_EQ(x.changed, y.changed) << i;
        EXPECT_EQ(x.knobs.chunk_tokens, y.knobs.chunk_tokens) << i;
        EXPECT_FLOAT_EQ(x.knobs.interactive_exit_threshold,
                        y.knobs.interactive_exit_threshold)
            << i;
        EXPECT_FLOAT_EQ(x.knobs.batch_exit_threshold,
                        y.knobs.batch_exit_threshold)
            << i;
    }
    // The adaptive run itself is deterministic across worker counts.
    EXPECT_DOUBLE_EQ(reps[0].fleet.makespan_s, reps[1].fleet.makespan_s);
    EXPECT_EQ(reps[0].fleet.tokens, reps[1].fleet.tokens);
    ASSERT_EQ(reps[0].outcomes.size(), reps[1].outcomes.size());
    for (size_t i = 0; i < reps[0].outcomes.size(); ++i) {
        const auto &x = reps[0].outcomes[i];
        const auto &y = reps[1].outcomes[i];
        ASSERT_EQ(x.result.emissions.size(), 1u);
        EXPECT_EQ(x.result.emissions[0].tokens,
                  y.result.emissions[0].tokens);
        EXPECT_DOUBLE_EQ(x.finish_s, y.finish_s);
    }
}

TEST(ControllerEndToEnd, KnobChangeTraceDecisionsReconcile)
{
    const testutil::ScopedUnsetenv no_trace("SPECEE_TRACE");
    const auto &pipe = testutil::tinyPipeline();
    auto o = ctlServerOpts(2);
    o.sched.controller = ctlOpts();
    o.sched.trace.enabled = true;
    serve::Server s(pipe, o);
    s.submit(ctlStream());
    const auto rep = s.drain();

    const auto &ctl = rep.fleet.controller;
    ASSERT_GT(ctl.epochs, 0);
    long moved_epochs = 0, changed_sum = 0;
    for (const auto &ep : ctl.trajectory) {
        if (ep.changed > 0)
            ++moved_epochs;
        changed_sum += ep.changed;
    }
    EXPECT_EQ(changed_sum, ctl.knob_changes);

    long events = 0, event_changed = 0;
    for (const auto &ev : rep.fleet.trace) {
        if (ev.kind == obs::TraceKind::Decision &&
            ev.decision == obs::TraceDecision::KnobChange) {
            ++events;
            event_changed += ev.tokens;
        }
    }
    // One instant per epoch that moved >= 1 knob, carrying the count.
    EXPECT_EQ(events, moved_epochs);
    EXPECT_EQ(event_changed, changed_sum);
}
