/**
 * @file
 * Transfer-engine + disaggregated-fleet tests: DMA channel
 * serialization and busy accounting, block-granular transfer pins on
 * the paged pool, the off-by-default inertness of TopologyOptions
 * (emissions AND modeled costs bit-identical to the serialized
 * scheduler), overlap-on changing only timing (tokens bit-identical,
 * makespan never worse), a fully hidden swap-in adding zero
 * critical-path seconds, and prefill/decode disaggregation: lossless
 * emissions, per-request handoff pricing, byte conservation and
 * worker-count determinism with every knob on.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "hw/cost_model.hh"
#include "model/paged_kv.hh"
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

void
expectSameTokens(const serve::ServeReport &a, const serve::ServeReport &b)
{
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_EQ(a.outcomes[i].result.emissions[0].tokens,
                  b.outcomes[i].result.emissions[0].tokens)
            << "request " << i;
    }
}

tensor::Vec
vec(int hidden, float base)
{
    tensor::Vec v(static_cast<size_t>(hidden));
    for (int i = 0; i < hidden; ++i)
        v[static_cast<size_t>(i)] = base + static_cast<float>(i);
    return v;
}

} // namespace

// ---------------------------------------------------------------------------
// hw::TransferEngine channel mechanics
// ---------------------------------------------------------------------------

TEST(TransferEngine, ChannelsSerializeAndAccumulateBusy)
{
    hw::TransferEngine xfer(2);
    EXPECT_EQ(xfer.nDevices(), 2);
    EXPECT_DOUBLE_EQ(xfer.freeAt(0, hw::DmaChannel::Host), 0.0);

    // Back-to-back submits on one channel queue behind each other.
    EXPECT_DOUBLE_EQ(xfer.submit(0, hw::DmaChannel::Host, 1.0, 2.0), 3.0);
    EXPECT_DOUBLE_EQ(xfer.submit(0, hw::DmaChannel::Host, 1.5, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(xfer.freeAt(0, hw::DmaChannel::Host), 4.0);

    // A later idle gap restarts at `now`, not at the old busy edge.
    EXPECT_DOUBLE_EQ(xfer.submit(0, hw::DmaChannel::Host, 10.0, 0.5),
                     10.5);

    // Other channels and devices are independent timelines.
    EXPECT_DOUBLE_EQ(xfer.submit(0, hw::DmaChannel::Peer, 0.0, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(xfer.submit(1, hw::DmaChannel::Host, 0.0, 1.0), 1.0);

    EXPECT_DOUBLE_EQ(xfer.busySeconds(), 2.0 + 1.0 + 0.5 + 1.0 + 1.0);

    xfer.reset();
    EXPECT_DOUBLE_EQ(xfer.freeAt(0, hw::DmaChannel::Host), 0.0);
    EXPECT_DOUBLE_EQ(xfer.busySeconds(), 0.0);
}

// ---------------------------------------------------------------------------
// PagedKvCache transfer pins
// ---------------------------------------------------------------------------

TEST(TransferPins, PinnedSequenceIsReadableButImmutable)
{
    model::PagedKvCache pool(1, 8, 4);
    const int seq = pool.createSequence();
    for (int pos = 0; pos < 20; ++pos)
        pool.append(seq, 0, vec(4, static_cast<float>(pos)), vec(4, 1.0f));

    EXPECT_FALSE(pool.inTransfer(seq));
    EXPECT_EQ(pool.seqTransferBlocks(seq), 0);
    EXPECT_EQ(pool.transferBlocksInFlight(), 0);

    pool.beginTransfer(seq);
    EXPECT_TRUE(pool.inTransfer(seq));
    EXPECT_EQ(pool.seqTransferBlocks(seq), pool.seqBlocks(seq));
    EXPECT_EQ(pool.transferBlocksInFlight(),
              static_cast<long>(pool.seqBlocks(seq)));

    // The functional move already happened: reads stay legal...
    EXPECT_FLOAT_EQ(pool.key(seq, 0, 7)[0], 7.0f);
    // ...but every mutation of the in-flight blocks is fatal.
    EXPECT_DEATH(pool.append(seq, 0, vec(4, 0.0f), vec(4, 0.0f)),
                 "in-flight");
    EXPECT_DEATH(pool.truncate(seq, 1), "in-flight");
    EXPECT_DEATH(pool.swapOut(seq), "in-flight");
    EXPECT_DEATH(pool.dropSequence(seq), "in-flight");
    EXPECT_DEATH(pool.beginTransfer(seq), "already has an in-flight");

    pool.endTransfer(seq);
    EXPECT_FALSE(pool.inTransfer(seq));
    EXPECT_EQ(pool.transferBlocksInFlight(), 0);
    EXPECT_DEATH(pool.endTransfer(seq), "never started");
    // Unpinned, the sequence mutates normally again.
    EXPECT_EQ(pool.append(seq, 0, vec(4, 20.0f), vec(4, 1.0f)), 20);
    pool.dropSequence(seq);
}

TEST(TransferPins, SwappedSequencePinsHostBlocks)
{
    // A swap-in rides the DMA channel with the blocks already moved
    // functionally; the pin covers the host+device footprint.
    model::PagedKvCache pool(1, 8, 4);
    const int seq = pool.createSequence();
    for (int pos = 0; pos < 20; ++pos)
        pool.append(seq, 0, vec(4, 1.0f), vec(4, 2.0f));
    pool.swapOut(seq);
    pool.beginTransfer(seq);
    EXPECT_EQ(pool.seqTransferBlocks(seq), pool.seqHostBlocks(seq));
    EXPECT_DEATH(pool.swapIn(seq), "in-flight");
    pool.endTransfer(seq);
    pool.swapIn(seq);
    EXPECT_FLOAT_EQ(pool.value(seq, 0, 3)[0], 2.0f);
}

// ---------------------------------------------------------------------------
// Off-by-default inertness
// ---------------------------------------------------------------------------

TEST(Topology, DefaultKnobsLeaveTransferAccountingInert)
{
    // The serialized scheduler is pinned bit-identically by the
    // legacy suites (test_serve / test_swap / test_prefix_cache);
    // here: explicit default topology is byte-for-byte the same
    // timeline, and no transfer-engine accounting engages.
    const auto stream = mixedStream(3, 3, 2048, 16);
    auto opts = baseOpts(2, 6);
    opts.sched.prefill.chunk_tokens = 128;
    opts.sched.kv_budget_blocks = 150;
    opts.sched.preempt_mode = serve::PreemptMode::Swap;
    const auto plain = serveStream(opts, stream);

    auto explicit_opts = opts;
    explicit_opts.sched.topology.devices = 1;
    explicit_opts.sched.topology.prefill_devices = 0;
    explicit_opts.sched.topology.overlap_transfers = false;
    const auto knobs = serveStream(explicit_opts, stream);

    ASSERT_GT(plain.fleet.swaps_out, 0);
    EXPECT_EQ(plain.fleet.handoffs, 0);
    EXPECT_EQ(plain.fleet.transfers_overlapped, 0);
    EXPECT_EQ(plain.fleet.peak_inflight_kv_blocks, 0);
    EXPECT_DOUBLE_EQ(plain.fleet.peak_inflight_mem_gb, 0.0);
    EXPECT_DOUBLE_EQ(plain.fleet.transfer_busy_s, 0.0);
    // Serialized transfers still balance the byte census.
    EXPECT_GT(plain.fleet.transfer_bytes_sent, 0.0);
    EXPECT_EQ(plain.fleet.transfer_bytes_sent,
              plain.fleet.transfer_bytes_received);

    expectSameTokens(plain, knobs);
    EXPECT_DOUBLE_EQ(plain.fleet.makespan_s, knobs.fleet.makespan_s);
    EXPECT_DOUBLE_EQ(plain.fleet.energy_j, knobs.fleet.energy_j);
    for (size_t i = 0; i < plain.outcomes.size(); ++i) {
        EXPECT_DOUBLE_EQ(plain.outcomes[i].result.stats.modeled_time_s,
                         knobs.outcomes[i].result.stats.modeled_time_s);
    }
}

// ---------------------------------------------------------------------------
// Overlapped transfers: timing-only, never worse, hideable
// ---------------------------------------------------------------------------

TEST(Overlap, ChangesOnlyTimingUnderSwapPressure)
{
    // Same stream, same pressure; overlap on must deliver bit-
    // identical tokens (transfers move data eagerly, the channel
    // only prices WHEN they land) and can only shorten the makespan.
    const auto stream = mixedStream(3, 3, 2048, 16);
    auto opts = baseOpts(2, 6);
    opts.sched.prefill.chunk_tokens = 128;
    opts.sched.kv_budget_blocks = 150;
    opts.sched.preempt_mode = serve::PreemptMode::Swap;
    const auto serial = serveStream(opts, stream);

    auto ov = opts;
    ov.sched.topology.overlap_transfers = true;
    const auto overlapped = serveStream(ov, stream);

    ASSERT_GT(serial.fleet.swaps_out, 0);
    EXPECT_GT(overlapped.fleet.transfers_overlapped, 0);
    EXPECT_GT(overlapped.fleet.transfer_busy_s, 0.0);
    EXPECT_GT(overlapped.fleet.peak_inflight_kv_blocks, 0);
    EXPECT_GT(overlapped.fleet.peak_inflight_mem_gb, 0.0);
    EXPECT_EQ(overlapped.fleet.transfer_bytes_sent,
              overlapped.fleet.transfer_bytes_received);
    EXPECT_EQ(overlapped.fleet.swaps_out, serial.fleet.swaps_out);

    expectSameTokens(serial, overlapped);
    EXPECT_LE(overlapped.fleet.makespan_s,
              serial.fleet.makespan_s * (1.0 + 1e-12));
}

TEST(Overlap, HiddenSwapInAddsZeroCriticalPathSeconds)
{
    // A swap-in overlapped behind >= 1 full decode iteration of the
    // surviving batch adds zero critical-path seconds: speeding the
    // host link up 100x must not move the makespan by a single bit.
    // The scenario pins the overlap window deterministically: a long
    // runner decodes throughout, a mid-length request frees its
    // blocks mid-run (re-admitting the victim while the runner still
    // decodes), and the victim is a small-KV batch-priority request
    // whose transfer fits inside one runner iteration. (The
    // serialized scheduler pays every transfer on the clock, so
    // there the same link change MUST move the makespan — the
    // control.)
    serve::StreamOptions runner;
    runner.n_requests = 1;
    runner.gen_len = 64;
    runner.seed = 0xa11;
    serve::StreamOptions mid;
    mid.n_requests = 1;
    mid.gen_len = 16;
    mid.id_base = 1;
    mid.seed = 0xb22;
    serve::StreamOptions victim;
    victim.n_requests = 1;
    victim.gen_len = 8;
    victim.priority = serve::Priority::Batch;
    victim.id_base = 100;
    victim.seed = 0xc33;
    const auto stream = serve::mergeStreams(
        serve::mergeStreams(serve::synthesizeStream(runner),
                            serve::synthesizeStream(mid)),
        serve::synthesizeStream(victim));

    auto opts = baseOpts(1, 3);
    opts.sched.kv_budget_blocks = 60;
    opts.sched.preempt_mode = serve::PreemptMode::Swap;
    opts.sched.topology.overlap_transfers = true;

    auto fast = opts;
    fast.spec.swap_bw_gbs *= 100.0;

    const auto slow_rep = serveStream(opts, stream);
    const auto fast_rep = serveStream(fast, stream);
    ASSERT_GT(slow_rep.fleet.swaps_in, 0);
    expectSameTokens(slow_rep, fast_rep);
    EXPECT_DOUBLE_EQ(slow_rep.fleet.makespan_s, fast_rep.fleet.makespan_s);

    // Control: serialized transfers put the link speed on the clock.
    auto serial_slow = opts;
    serial_slow.sched.topology.overlap_transfers = false;
    auto serial_fast = serial_slow;
    serial_fast.spec.swap_bw_gbs *= 100.0;
    const auto cs = serveStream(serial_slow, stream);
    const auto cf = serveStream(serial_fast, stream);
    ASSERT_GT(cs.fleet.swaps_in, 0);
    EXPECT_GT(cs.fleet.makespan_s, cf.fleet.makespan_s);
}

// ---------------------------------------------------------------------------
// Disaggregated prefill/decode fleets
// ---------------------------------------------------------------------------

TEST(Disagg, LosslessWithPerRequestHandoffPricing)
{
    const auto stream = mixedStream(3, 3, 2048, 16);
    auto unified = baseOpts(2, 6);
    unified.sched.prefill.chunk_tokens = 128;
    const auto uni = serveStream(unified, stream);

    auto disagg = unified;
    disagg.disaggregate(1, 1);
    const auto dis = serveStream(disagg, stream);

    // KV is a pure function of the tokens, so moving prefill to a
    // dedicated device never changes what any request emits.
    expectSameTokens(uni, dis);

    // No pressure: each request prefills once, hands off once.
    EXPECT_EQ(dis.fleet.handoffs, static_cast<long>(stream.size()));
    EXPECT_GT(dis.fleet.handoff_gb, 0.0);
    EXPECT_GT(dis.fleet.prefill_busy_s, 0.0);
    EXPECT_GT(dis.fleet.transfers_overlapped, 0);
    EXPECT_EQ(dis.fleet.transfer_bytes_sent,
              dis.fleet.transfer_bytes_received);
    EXPECT_EQ(uni.fleet.handoffs, 0);

    // Every request's oplog carries exactly one priced handoff.
    for (const auto &o : dis.outcomes) {
        const auto &h = o.result.stats.oplog.totals(hw::OpClass::KvHandoff);
        EXPECT_EQ(h.count, 1);
        EXPECT_GT(h.time_s, 0.0);
        EXPECT_GT(h.bytes, 0.0);
    }
}

TEST(Disagg, DeterministicAcrossWorkerCountsWithAllKnobsOn)
{
    const auto stream = mixedStream(3, 3, 2048, 16);
    auto opts1 = baseOpts(1, 6);
    opts1.sched.prefill.chunk_tokens = 128;
    opts1.sched.kv_budget_blocks = 220;
    opts1.sched.preempt_mode = serve::PreemptMode::Swap;
    opts1.disaggregate(1, 2);
    const auto r1 = serveStream(opts1, stream);

    auto opts3 = baseOpts(3, 6);
    opts3.sched = opts1.sched;
    const auto r3 = serveStream(opts3, stream);

    EXPECT_GT(r1.fleet.handoffs, 0);
    expectSameTokens(r1, r3);
    EXPECT_EQ(r1.fleet.tokens, r3.fleet.tokens);
    EXPECT_EQ(r1.fleet.handoffs, r3.fleet.handoffs);
    EXPECT_EQ(r1.fleet.swaps_out, r3.fleet.swaps_out);
    EXPECT_DOUBLE_EQ(r1.fleet.makespan_s, r3.fleet.makespan_s);
    EXPECT_DOUBLE_EQ(r1.fleet.energy_j, r3.fleet.energy_j);
    EXPECT_EQ(r1.fleet.transfer_bytes_sent, r3.fleet.transfer_bytes_sent);
    ASSERT_EQ(r1.outcomes.size(), r3.outcomes.size());
    for (size_t i = 0; i < r1.outcomes.size(); ++i) {
        EXPECT_DOUBLE_EQ(r1.outcomes[i].ttft_s, r3.outcomes[i].ttft_s);
        EXPECT_DOUBLE_EQ(r1.outcomes[i].latency_s,
                         r3.outcomes[i].latency_s);
    }
}

TEST(Disagg, RequiresChunkingAndAPeerLink)
{
    const auto stream = mixedStream(1, 1, 512, 8);
    auto opts = baseOpts(1, 4);
    opts.disaggregate(1, 1);
    // Disaggregation without chunked prefill is a config error...
    EXPECT_DEATH(serveStream(opts, stream), "chunk");
    // ...and so is a platform without a peer link.
    opts.sched.prefill.chunk_tokens = 128;
    opts.spec.interconnect_gbs = 0.0;
    EXPECT_DEATH(serveStream(opts, stream), "peer link|interconnect");
}
