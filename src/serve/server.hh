/**
 * @file
 * Multi-request serving node (§7.2.1 cloud scenario at fleet scale).
 *
 * A Server is the serving front door. It owns a pool of worker
 * engines built from one shared trained Pipeline (predictor bank,
 * AdaInfer SVMs, RAEE index and corpus are immutable after training
 * and safe to share) and holds the requests submitted since the last
 * drain. drain() hands them to the live iteration-level scheduler
 * (runScheduler, batch_scheduler.hh): each request becomes a
 * stepwise DecodeSession pinned to a worker engine, sessions step in
 * parallel per iteration, waiting requests are admitted into free
 * slots at every iteration boundary (interactive tier first, then
 * (arrival, id) order), and sessions are preempted (KV evicted,
 * re-enqueued) when the fleet KV budget runs out. Tokens stream to
 * `on_token` as they are emitted.
 *
 *   serve::Server server(pipe, {.engine = cfg.withSpecEE()});
 *   server.submit(serve::synthesizeStream({.rate_rps = 8.0}));
 *   auto report = server.drain();
 *   // report.fleet.tokens_per_s, .p99_latency_s, .mean_ttft_s, ...
 *
 * ServerOptions::disaggregate(P, D) splits the modeled fleet into
 * prefill- and decode-specialized devices with the KV handoff, every
 * swap and every prefix restore riding per-device DMA channels off
 * the critical path — see TopologyOptions.
 *
 * Results are bit-deterministic for a fixed request stream no matter
 * how many workers run or which threads submitted which request:
 * every request decodes under its own seed and all scheduling
 * decisions are made in admission order on the fleet clock. With
 * max_batch = 1 and an unbounded KV budget the timeline reduces
 * exactly to sequential one-request-at-a-time serving.
 */

#ifndef SPECEE_SERVE_SERVER_HH
#define SPECEE_SERVE_SERVER_HH

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engines/pipeline.hh"
#include "serve/batch_scheduler.hh"

namespace specee::serve {

/** Server construction options. */
struct ServerOptions
{
    /** Engine configuration every worker runs. */
    engines::EngineConfig engine;

    hw::HardwareSpec spec = hw::HardwareSpec::a100();

    /** Worker engines stepping decode slots in parallel. */
    int workers = 2;

    SchedulerOptions sched;

    /**
     * Role assignment: split the modeled fleet into `n_prefill`
     * prefill-specialized and `n_decode` decode-specialized devices.
     * Prefill devices chunk-ingest prompts on their own timelines and
     * stream finished KV to the decode side over the priced peer link
     * (`interconnect_gbs`), and turns on overlap_transfers: the
     * handoff (and every swap / prefix restore) rides the per-device
     * DMA channels concurrently with the iteration clock instead of
     * serializing on it. Sugar for setting `sched.topology` directly.
     * Workers stay a physical parallelism knob — any worker steps
     * sessions of either role, and results are bit-identical for any
     * worker count.
     */
    ServerOptions &disaggregate(int n_prefill, int n_decode)
    {
        sched.topology.devices = n_prefill + n_decode;
        sched.topology.prefill_devices = n_prefill;
        sched.topology.overlap_transfers = true;
        return *this;
    }

    /**
     * Write the fleet event trace of the next drain() here as Chrome
     * trace-event JSON (load at https://ui.perfetto.dev). Non-empty
     * forces sched.trace.enabled for the run; the environment
     * variable SPECEE_TRACE overrides this path (set either to
     * trace without recompiling callers). Empty (default) + no env
     * var leaves tracing off. Tracing never changes emissions or
     * modeled costs.
     */
    std::string trace_path;

    /**
     * Streaming per-token callback, invoked on the drain()ing thread
     * at iteration boundaries in admission order. Tokens re-decoded
     * after a preemption are not re-delivered. Returning false
     * cancels the request at that iteration boundary (streaming
     * backpressure; counted in FleetStats::cancelled).
     */
    TokenCallback on_token;
};

/** Everything a drained request stream produced. */
struct ServeReport
{
    /**
     * Per-request outcomes in (arrival, id) order — not admission
     * order, which puts the interactive tier first and re-admits
     * preempted requests.
     */
    std::vector<RequestOutcome> outcomes;

    FleetStats fleet;
};

/** Multi-worker live-batching serving node over one trained pipeline. */
class Server
{
  public:
    Server(const engines::Pipeline &pipe, const ServerOptions &opts);

    /**
     * Hold requests for the next drain(). Safe to call from several
     * threads: the report never depends on the interleaving.
     */
    void submit(Request r);
    void submit(std::vector<Request> rs);

    /**
     * Serve every submitted request to completion through the live
     * scheduler and reduce the fleet metrics. Deterministic for a
     * fixed stream regardless of the worker count.
     */
    ServeReport drain();

    const ServerOptions &options() const { return opts_; }

  private:
    const engines::Pipeline &pipe_;
    ServerOptions opts_;
    std::mutex mu_; ///< guards pending_
    std::vector<Request> pending_;
    std::vector<std::unique_ptr<engines::Engine>> engines_;
};

} // namespace specee::serve

#endif // SPECEE_SERVE_SERVER_HH
