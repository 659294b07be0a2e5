#include "serve/batch_scheduler.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "hw/memory_tracker.hh"
#include "metrics/stats.hh"
#include "model/paged_kv.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace specee::serve {

namespace {

/** One request moving through the waiting queue / decode slots. */
struct Entry
{
    Request req;
    workload::Workload w; ///< built once, survives preemption
    size_t outcome = 0;   ///< index into `outcomes`

    std::unique_ptr<engines::DecodeSession> sess;
    size_t engine = 0; ///< physical worker executing the session
    size_t device = 0; ///< logical topology device pricing it

    /** Disaggregated-prefill progress (prefill-device entries). */
    bool pf_done = false;   ///< prompt fully ingested on the device
    double pf_done_s = 0.0; ///< fleet clock when ingestion completes

    /** In-flight DMA state (overlap) / pending handoff price. */
    double xfer_ready_s = 0.0; ///< in-flight transfer lands (clock)
    double xfer_bytes = 0.0;   ///< true-dims bytes riding the link
    double handoff_s = 0.0;    ///< serialized handoff price (overlap off)

    double first_admit_s = -1.0;
    double first_token_s = -1.0;
    double last_token_s = 0.0;
    double itl_sum_s = 0.0;
    double itl_max_s = 0.0; ///< worst delivered gap (SLO judging)
    long itl_gaps = 0;
    size_t streamed = 0; ///< tokens already delivered downstream
    int preemptions = 0;

    double prefill_ready_s = -1.0; ///< prompt fully ingested (clock)
    int chunks = 0;  ///< prefill chunks of the current run
    int granted = 0; ///< prompt tokens granted this iteration
    int swaps = 0;   ///< times swapped to the host pool
    bool cancel = false; ///< consumer returned false from on_token

    /** Derived true-dims prompt (shared specs under the cache). */
    std::vector<int> true_toks;
    int cached = 0; ///< cached tokens adopted by the current run
    int sim_adopted = 0; ///< sim KV rows shared with the cache
    bool cache_inserted = false; ///< this run's prompt is in the tree

    engines::StepCost cost; ///< most recent iteration's step cost
};

/** How a request leaves the fleet. */
enum class Retirement { Drop, Cancel, Complete };

/** A tier-first scan's verdict on one queued candidate. */
enum class Scan { Consider, Skip, Stop };

/** `num / den`, or 0 when `den` is not positive. */
double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

int
tierOf(const Entry &e)
{
    return static_cast<int>(e.req.priority);
}

/** Move entry `i` out of `q`, closing the gap. */
template <class Queue>
Entry
take(Queue &q, size_t i)
{
    Entry e = std::move(q[i]);
    q.erase(q.begin() + static_cast<long>(i));
    return e;
}

/**
 * Everything one runScheduler call mutates: the five request
 * queues, the modeled clock, the KV pools and prefix cache, the DMA
 * channels, observability and control, the live knobs and the
 * counters. Each scheduling phase is one member function; run()
 * calls them in a fixed order once per iteration boundary.
 */
struct FleetState
{
    FleetState(const SchedulerOptions &o, const engines::Pipeline &pipe,
               std::vector<engines::Engine *> engs,
               std::vector<Request> requests,
               std::vector<RequestOutcome> &outs, const TokenCallback &cb)
        : opts(o), engines(std::move(engs)), outcomes(outs),
          on_token(cb), t0(requests.front().arrival_s)
    {
        // The fleet's pipeline shape. Workers must shard identically
        // — stage-split pricing and backfill read one stage graph,
        // and a heterogeneous fleet would make results depend on
        // which worker a session landed on (breaking worker-count
        // determinism).
        for (const auto *e : engines) {
            specee_assert(e->stageGraph().nStages() == n_stages &&
                              e->tpDegree() ==
                                  engines.front()->tpDegree(),
                          "all worker engines must share one tp x pp "
                          "sharding");
        }
        // Swap preemption needs a host link. Pure swap mode without
        // one is a configuration error (fail fast, not
        // mid-eviction); auto degrades to recompute-only on such
        // platforms.
        specee_assert(opts.preempt_mode != PreemptMode::Swap ||
                          has_swap_link,
                      "preempt_mode = swap on platform %s, which has "
                      "no host link (swap_bw_gbs = 0)",
                      engines.front()->platform().name.c_str());
        // A disaggregated fleet needs a peer link to stream finished
        // prompts' KV over (fail fast, not at the first handoff).
        specee_assert(
            !disagg || engines.front()->platform().interconnect_gbs > 0.0,
            "disaggregated prefill/decode on platform %s, which has no "
            "peer link (interconnect_gbs = 0)",
            engines.front()->platform().name.c_str());
        fleet.n_stages = n_stages;

        // One shared KV pool per worker engine. Its capacity bounds
        // block ids: a full decode batch of maximum-context sequences
        // could never run out of ids even if every session lands on
        // one engine. Storage is allocated per chunk on first use, so
        // a pool keeps resident only its peak occupancy. The *budget*
        // (policy) is enforced fleet-wide by the scheduler against
        // real allocator occupancy; the pool (mechanism) just backs
        // the block tables.
        const int per_seq_blocks =
            mcfg.n_layers * (mcfg.context_len / model::kKvBlockSize + 2);
        // Prefix-cache headroom: the cache may hold up to its
        // capacity in blocks that no live session references, plus
        // one prompt's worth of transient overshoot before the
        // post-insert trim, plus copy-on-write forks. Sized into the
        // pool so the third residency tier can never physically
        // starve admissions.
        if (cache_on) {
            cache_capacity = opts.prefix_cache.capacity_blocks > 0
                                 ? opts.prefix_cache.capacity_blocks
                                 : per_seq_blocks;
        }
        // Disaggregation holds sessions outside the decode slots too:
        // up to one ingesting prompt per prefill device plus a
        // bounded handoff queue (prefill admission stops once
        // prefill-side entries reach slots + prefill devices), so the
        // pool backs the worst case physically and the fleet budget
        // stays pure policy.
        const int pool_slots =
            static_cast<int>(slots) +
            (disagg ? static_cast<int>(slots) + n_prefill_dev : 0);
        const int pool_blocks =
            pool_slots * per_seq_blocks +
            (cache_on ? cache_capacity + per_seq_blocks : 0);
        for (size_t e = 0; e < engines.size(); ++e) {
            pools.push_back(std::make_shared<model::PagedKvCache>(
                mcfg.n_layers, pool_blocks, mcfg.sim.hidden));
        }
        if (cache_on)
            cache.emplace(mcfg.n_layers, pools);

        outcomes.resize(requests.size());
        for (size_t i = 0; i < requests.size(); ++i) {
            Entry e;
            // buildPromptWorkload reconciles the prompt-identity
            // knobs: an unshared spec reproduces the legacy
            // makeWorkload call bit-identically; a shared spec
            // derives its true tokens and the stride-derived sim
            // prompt the cache can share.
            e.w = buildPromptWorkload(pipe, requests[i],
                                      ecfg.q4Calibrated());
            if (cache_on && requests[i].prompt.shared())
                e.true_toks = resolvePromptTokens(requests[i].prompt);
            e.req = std::move(requests[i]);
            e.outcome = i;
            outcomes[i].request = e.req;
            waiting.push_back(std::move(e));
        }

        // Worst-case block growth of one session in one iteration:
        // every committed token may open a fresh block in every
        // layer; a prefill chunk can append up to the whole sim
        // prefix.
        iter_growth =
            mcfg.n_layers * (ecfg.spec_decode ? ecfg.tree.depth() + 1 : 1);
        if (chunked) {
            // A prefill chunk can append up to the whole sim prefix
            // in one iteration. Legacy prompts all run kSimPromptLen
            // sim rows (so this reduces to the pre-PromptSpec
            // constant); shared prompts derive one row per
            // kPromptSimStride true tokens and can be longer.
            int max_rows = workload::kSimPromptLen;
            for (const auto &e : waiting) {
                max_rows = std::max(
                    max_rows,
                    static_cast<int>(e.w.instances.front().prompt.size()) -
                        1);
            }
            iter_growth = std::max(
                iter_growth,
                mcfg.n_layers * ((max_rows + model::kKvBlockSize - 1) /
                                     model::kKvBlockSize +
                                 1));
        }
        // A write into a shared cached block forks a copy-on-write
        // duplicate: one extra block per layer of worst-case growth.
        if (cache_on)
            iter_growth += mcfg.n_layers;
        active.reserve(slots);
    }

    // --- configuration, fixed for the run --------------------------
    const SchedulerOptions &opts;
    const std::vector<engines::Engine *> engines;
    std::vector<RequestOutcome> &outcomes;
    const TokenCallback &on_token;
    const engines::EngineConfig &ecfg = engines.front()->config();
    const model::ModelConfig &mcfg = engines.front()->modelConfig();
    const size_t slots = static_cast<size_t>(opts.max_batch);
    const int n_stages = engines.front()->stageGraph().nStages();
    const bool staged = n_stages > 1;
    const bool has_swap_link =
        engines.front()->platform().swap_bw_gbs > 0.0;
    // Fleet topology: logical devices the pricing spreads over —
    // independent of the physical worker count, so determinism
    // across workers is preserved. Decode devices are
    // [0, n_decode_dev); prefill devices (disaggregation) are the
    // tail [n_decode_dev, topology.devices).
    const int n_prefill_dev = opts.topology.prefill_devices;
    const int n_decode_dev = opts.topology.devices - n_prefill_dev;
    const bool disagg = n_prefill_dev > 0;
    const bool overlap = opts.topology.overlap_transfers;
    const bool cache_on = opts.prefix_cache.enabled;
    const bool tracing = opts.trace.enabled;
    int cache_capacity = 0;
    int iter_growth = 0;
    // Fleet memory at TRUE dims: weights/draft/predictors once,
    // per-session KV and activations summed. Same deployment model
    // as the per-request peak_mem_gb (Engine::finalizeRun).
    const hw::MemoryTracker mem = engines.front()->makeMemoryTracker();
    const double t0;

    // --- request queues --------------------------------------------
    std::deque<Entry> waiting;
    std::vector<Entry> active;
    // Sessions preempted by swap-to-host: frozen with their KV in the
    // pool's host side. Resumes compete with fresh admissions
    // tier-first once pressure clears (see admitDecodeSlots).
    std::deque<Entry> swappedQ;
    // Disaggregation: sessions ingesting their prompt on a prefill
    // device, and finished prompts whose KV is streaming (or queued
    // to stream) to a decode device.
    std::vector<Entry> prefilling;
    std::deque<Entry> handoffQ;

    // --- clock, devices, KV residency ------------------------------
    double clock = t0;
    // Per-device DMA channel timelines (host link, peer link). Only
    // consulted while overlap_transfers is on.
    hw::TransferEngine xfer{opts.topology.devices};
    // Busy-until of each prefill device's decoupled compute timeline.
    std::vector<double> pf_free_at = std::vector<double>(
        static_cast<size_t>(std::max(n_prefill_dev, 1)), 0.0);
    std::vector<std::shared_ptr<model::PagedKvCache>> pools;
    std::optional<PrefixCache> cache;
    uint64_t cache_stamp = 0; ///< fleet-global LRU clock

    // --- observability: event trace + metrics timeline -------------
    // Both record against the MODELED clock and never advance it or
    // touch any scheduling state, so emissions and modeled costs are
    // bit-identical whether they are on or off. Every trace event is
    // appended on this thread (worker threads only step sessions), so
    // emission order, and with it the sorted trace, is the same for
    // any worker count.
    std::vector<obs::TraceEvent> trace;
    obs::Timeline timeline{opts.timeline, t0, mcfg.n_layers, n_stages};

    // --- adaptive control plane ------------------------------------
    // The controller starts from the static knob values and runs on
    // the modeled clock: each epoch it reads its PRIVATE windowed
    // timeline (epoch-width windows, independent of the user-facing
    // one) and Thompson-samples the next knob setting. All live knob
    // state lives in the members below; with the controller off they
    // hold the static values forever and every path is bit-identical
    // to the controller-less scheduler.
    AdaptiveController ctl{
        opts.controller,
        ControllerKnobs{opts.prefill.chunk_tokens, ecfg.exit_threshold,
                        ecfg.exit_threshold}};
    const bool controlled = ctl.enabled();
    obs::Timeline ctl_tl{
        obs::TimelineOptions{controlled ? ctl.epochSeconds() : 0.0}, t0,
        mcfg.n_layers, n_stages};
    size_t ctl_epoch = 0; ///< next decision window to close
    // SLO verdicts known SO FAR: the controller's reward
    // attribution. Written at retirement (drop / cancel / complete)
    // and eagerly the moment an in-flight request blows a TTFT or
    // ITL bound — a breach is irrevocable, so waiting for retirement
    // would keep crediting doomed requests and bias window rewards
    // optimistic. In-flight requests otherwise default to attained —
    // they have not failed anything yet.
    std::unordered_map<uint64_t, bool> online_attained;

    // --- live knobs ------------------------------------------------
    // The adaptive controller may retune the chunk size at epoch
    // boundaries (rebuilding the planner), but never toggles chunking
    // itself — `chunked` is structural and fixed for the whole run.
    PrefillOptions pf_opts = opts.prefill;
    PrefillPlanner planner{pf_opts};
    const bool chunked = planner.enabled();

    // --- counters --------------------------------------------------
    double occupancy = 0.0;
    double itl_sum = 0.0;
    long itl_gaps = 0;
    std::vector<double> itl_samples; ///< every delivered gap
    long slo_tokens = 0; ///< tokens delivered by attaining requests
    uint64_t admit_seq = 0;
    // Round-robin decode-device assignment, like admit_seq for
    // engines; inert at one device.
    uint64_t dev_seq = 0;
    // Stages the previous iteration's early exits left idle — the
    // backfill planner's bubble estimate. Reading LAST iteration's
    // occupancy keeps the plan causal (it depends only on work
    // already priced), so results stay bit-identical across worker
    // counts; the one-iteration lag is the micro-batch pipeline.
    int free_stages_prev = 0;
    FleetStats fleet;

    // --- per-boundary / per-iteration scratch ----------------------
    std::vector<int> grant; ///< planned prompt tokens per active slot
    double step_t0 = 0.0;
    int busy_stages = 0;

    bool pending() const
    {
        return !waiting.empty() || !active.empty() ||
               !swappedQ.empty() || !prefilling.empty() ||
               !handoffQ.empty();
    }

    /** Record into the user-facing and the controller's timeline. */
    template <class F>
    void record(F &&f)
    {
        f(timeline);
        f(ctl_tl);
    }

    /** Every session holding device KV: decode slots, ingesting
     * prompts and queued handoffs. */
    template <class F>
    void forEachOnDevice(F &&f)
    {
        for (auto &a : active)
            f(a);
        for (auto &p : prefilling)
            f(p);
        for (auto &h : handoffQ)
            f(h);
    }

    /** Every live session: on a device, or frozen in the host pool. */
    template <class F>
    void forEachLive(F &&f)
    {
        forEachOnDevice(f);
        for (auto &s : swappedQ)
            f(s);
    }

    void decision(obs::TraceDecision d, uint64_t req_id, int d_tokens = 0)
    {
        if (!tracing)
            return;
        obs::TraceEvent ev;
        ev.kind = obs::TraceKind::Decision;
        ev.t0 = ev.t1 = clock;
        ev.decision = d;
        ev.request = req_id;
        ev.tokens = d_tokens;
        trace.push_back(std::move(ev));
    }

    /** One DMA busy span [a, b) on `device`'s channel — fed to both the
     * trace and the timeline's channel-utilization accumulator. */
    void transferSpan(double a, double b, size_t device,
                      hw::DmaChannel ch, uint64_t req_id)
    {
        timeline.recordTransfer(a, b);
        if (!tracing)
            return;
        obs::TraceEvent ev;
        ev.kind = obs::TraceKind::Transfer;
        ev.t0 = a;
        ev.t1 = b;
        ev.device = static_cast<int>(device);
        ev.channel = static_cast<int>(ch);
        ev.request = req_id;
        trace.push_back(std::move(ev));
    }

    /**
     * Fleet KV occupancy the budget gates read: the real allocator state
     * — distinct physical blocks, counting a block shared by several
     * sessions (or by a session and the cache) once. Sharing only
     * happens within a pinned engine, so the sum is identical across
     * worker counts. Without the cache every session owns its own pool
     * sequence and swap-out frees device blocks eagerly, so this equals
     * the sum of the device-resident sessions' blocks.
     */
    long fleetBlocks() const
    {
        long b = 0;
        for (const auto &p : pools)
            b += p->blocksInUse();
        return b;
    }

    /** `extra` more blocks plus one iteration's worst-case growth for
     * `n_sessions` sessions fit the fleet budget (always, unbounded). */
    bool fitsBudget(long extra, long n_sessions) const
    {
        return opts.kv_budget_blocks <= 0 ||
               fleetBlocks() + extra + iter_growth * n_sessions <=
                   opts.kv_budget_blocks;
    }

    /**
     * Prefill-aware watermark: beyond the first-chunk reservation the
     * budget gate charges, the fleet's COMMITTED working set — every
     * device-resident session's full prompt + decode KV (what its blocks
     * will grow to, not what it holds mid-chunk) plus the candidate's,
     * plus the growth reserve for `n_sessions` — must fit under the
     * high-water mark. Otherwise a long prompt admitted against today's
     * near-empty occupancy would chunk, grow, evict and recompute in a
     * loop under a tight budget. A rejection is counted and traced.
     */
    bool fitsWatermark(const Entry &head, long n_sessions)
    {
        if (opts.kv_watermark <= 0.0 || opts.kv_budget_blocks <= 0)
            return true;
        long committed = fullRequestBlocks(head, peekCached(head));
        forEachOnDevice([&](const Entry &e) {
            committed += fullRequestBlocks(e, e.sim_adopted);
        });
        if (static_cast<double>(committed + iter_growth * n_sessions) <=
            opts.kv_watermark * opts.kv_budget_blocks)
            return true;
        ++fleet.watermark_rejections;
        decision(obs::TraceDecision::WatermarkReject, head.req.id);
        return false;
    }

    /**
     * Device KV of the candidate's FULL working set (sim dims): the
     * whole prompt — not the first chunk's share chunked admission
     * reserves — plus every scripted decode position. This is what the
     * prefill-aware watermark insists fits under the high-water mark
     * before a long prompt is admitted at all. `sim_cached` sim rows
     * already resident in the prefix cache discount the charge: adoption
     * shares those blocks instead of allocating them, so counting them
     * again would double-charge every cache hit and starve admission
     * under tight watermarks. Only WHOLE cached blocks discount — the
     * boundary block copy-on-write forks on the first divergent write,
     * so its copy still charges.
     */
    int fullRequestBlocks(const Entry &e, int sim_cached) const
    {
        const auto &inst = e.w.instances.front();
        const int positions = static_cast<int>(inst.prompt.size()) +
                              static_cast<int>(inst.steps.size());
        int blocks =
            (positions + model::kKvBlockSize - 1) / model::kKvBlockSize;
        blocks -= std::min(blocks, sim_cached / model::kKvBlockSize);
        return mcfg.n_layers * blocks;
    }

    /** The candidate's would-be adoption, probed WITHOUT stamping the
     * LRU or assembling a block table (pure read): what admission will
     * actually share if the gate passes. */
    int peekCached(const Entry &e) const
    {
        if (!cache_on || e.true_toks.empty())
            return 0;
        return cache->peekSimMatched(e.true_toks, templateEngine(e));
    }

    /**
     * KV an admission must be able to hold up front: the whole
     * (sim-dims) prompt when prefill is atomic, only the first chunk's
     * share of the prefix when chunked — gradual ingestion is what lets
     * short requests slip in under KV pressure.
     */
    int admitBlocks(const Entry &e) const
    {
        const int prompt =
            static_cast<int>(e.w.instances.front().prompt.size());
        int sim = prompt;
        if (chunked) {
            const int total = std::max(e.w.true_prompt_len, 1);
            const int chunk = std::min(pf_opts.chunk_tokens, total);
            // A single-chunk prompt reserves exactly what the atomic
            // path would; smaller chunks reserve the first chunk's
            // proportional share of the sim prefix.
            if (chunk < total) {
                sim = std::max(
                    1, engines::simPrefixRows(prompt - 1, chunk, total));
            }
        }
        return mcfg.n_layers *
               ((sim + model::kKvBlockSize - 1) / model::kKvBlockSize);
    }

    /** Future arrivals are a contiguous sorted tail of the wait queue
     * (victims re-enter at the front, already arrived). */
    Scan arrived(const Entry &e) const
    {
        return e.req.arrival_s > clock ? Scan::Stop : Scan::Consider;
    }

    /** A swapped session whose out-transfer is still on the link, or a
     * handoff whose KV is still streaming, cannot take a slot yet. */
    Scan settled(const Entry &e) const
    {
        return e.sess->awaitingTransfer() ? Scan::Skip : Scan::Consider;
    }

    /**
     * Tier-first FIFO pick: the first interactive candidate `filter`
     * admits, else the first candidate of any tier; q.size() when there
     * is none.
     */
    size_t pickTierFirst(const std::deque<Entry> &q,
                         Scan (FleetState::*filter)(const Entry &) const)
    {
        size_t any = q.size();
        for (size_t i = 0; i < q.size(); ++i) {
            const Scan s = (this->*filter)(q[i]);
            if (s == Scan::Stop)
                break;
            if (s == Scan::Skip)
                continue;
            if (q[i].req.priority == Priority::Interactive)
                return i;
            if (any == q.size())
                any = i;
        }
        return any;
    }

    /** The engine a shared-template prompt is pinned to. */
    size_t templateEngine(const Entry &e) const
    {
        return static_cast<size_t>(e.req.prompt.rootTemplate() %
                                   engines.size());
    }

    size_t nextDecodeDevice()
    {
        return static_cast<size_t>(dev_seq++ %
                                   static_cast<uint64_t>(n_decode_dev));
    }

    /** Index of a prefilling entry's device among the prefill devices. */
    size_t prefillSlot(const Entry &p) const
    {
        return p.device - static_cast<size_t>(n_decode_dev);
    }

    /** Per-tier speculation aggressiveness under the controller. */
    void applyExitThreshold(Entry &e) const
    {
        const ControllerKnobs &k = ctl.knobs();
        e.sess->setExitThreshold(e.req.priority == Priority::Interactive
                                     ? k.interactive_exit_threshold
                                     : k.batch_exit_threshold);
    }

    /**
     * Start a fresh run of `e` on logical `device`: pin a worker engine,
     * open a session, adopt any cached prefix, and count the admission.
     */
    void startSession(Entry &e, size_t device)
    {
        // Template-affinity pinning: requests sharing a root template
        // land on one engine, so their physical blocks live in one pool
        // and can actually be shared. Unshared requests keep the legacy
        // round-robin. Cache decisions stay deterministic across worker
        // counts because a template's tree is the same tree wherever it
        // lives.
        if (cache_on && !e.true_toks.empty())
            e.engine = templateEngine(e);
        else
            e.engine = admit_seq++ % engines.size();
        // Logical pricing device, independent of the physical worker
        // pin above; inert at one device.
        e.device = device;
        e.sess = engines[e.engine]->makeSession(
            e.w, e.req.seed,
            std::make_unique<model::SequenceKv>(pools[e.engine]));
        e.cached = 0;
        e.sim_adopted = 0;
        if (cache_on && !e.true_toks.empty()) {
            const PrefixCache::Match m =
                cache->match(e.true_toks, e.engine, cache_stamp++);
            if (m.sim_matched > 0) {
                e.sess->adoptCachedPrefix(m.table, m.true_matched,
                                          m.sim_matched);
                e.cached = m.true_matched;
                e.sim_adopted = m.sim_matched;
                ++fleet.prefix_hits;
                fleet.cached_tokens += m.true_matched;
                decision(obs::TraceDecision::CacheHit, e.req.id,
                         m.true_matched);
            }
        }
        if (controlled)
            applyExitThreshold(e);
        if (e.first_admit_s < 0.0)
            e.first_admit_s = clock;
        ++fleet.admissions;
        decision(obs::TraceDecision::Admit, e.req.id);
    }

    /**
     * Move `e`'s KV over its device's `ch` channel, costing `seconds`.
     * Overlap off: the DMA serializes on the fleet clock and lands now.
     * Overlap on: it is submitted on the channel, concurrent with
     * compute, and the session's blocks stay pinned (the session holds
     * its place at zero cost) until settleLanded() sees it land.
     */
    void submitTransfer(Entry &e, hw::DmaChannel ch, double seconds)
    {
        const int dev = static_cast<int>(e.device);
        if (!overlap) {
            transferSpan(clock, clock + seconds, e.device, ch, e.req.id);
            clock += seconds;
            fleet.transfer_bytes_received += e.xfer_bytes;
            return;
        }
        const double busy_from = std::max(clock, xfer.freeAt(dev, ch));
        e.xfer_ready_s = xfer.submit(dev, ch, clock, seconds);
        transferSpan(busy_from, e.xfer_ready_s, e.device, ch, e.req.id);
        e.sess->beginTransfer();
        ++fleet.transfers_overlapped;
    }

    /**
     * Restore a swapped session into a decode slot. The functional
     * restore happens now (KV content is a pure function of the tokens,
     * so eager data movement cannot change emissions); the host-link DMA
     * is priced by submitTransfer().
     */
    void swapIn(Entry e)
    {
        const double h = e.sess->swapIn();
        ++fleet.swaps_in;
        decision(obs::TraceDecision::Resume, e.req.id);
        e.xfer_bytes = mem.kvBytes(e.sess->modeledPositions());
        fleet.transfer_bytes_sent += e.xfer_bytes;
        submitTransfer(e, hw::DmaChannel::Host, h);
        active.push_back(std::move(e));
    }

    /**
     * Cache the finished prompt's KV at the prefill-done boundary — the
     * one moment every layer holds exactly the prompt's sim rows.
     * Idempotent per run; a recompute preemption clears the flag so the
     * re-run re-inserts (its fresh blocks replace freed ones).
     */
    void cacheInsert(Entry &e)
    {
        if (!cache_on || e.true_toks.empty() || e.cache_inserted)
            return;
        e.cache_inserted = true;
        cache->insert(e.true_toks, e.engine, e.sess->kvSeqId(),
                      cache_stamp++);
    }

    /**
     * Finalize a request leaving the fleet. A drop and a cancel keep the
     * tokens already delivered — their gaps count toward fleet ITL (they
     * are in itl_samples too, keeping mean and percentiles consistent)
     * — but retire without a finalized result; a drop fails every
     * configured objective, a cancel stays unjudged. The entry's KV
     * frees when the caller discards it.
     */
    void retire(Entry &e, Retirement kind)
    {
        if (e.sess && e.sess->awaitingTransfer()) {
            // The modeled DMA still completes on its channel; settle it
            // so the byte-conservation census stays exact before the
            // blocks free with the entry.
            e.sess->endTransfer();
            fleet.transfer_bytes_received += e.xfer_bytes;
        }
        const bool completed = kind == Retirement::Complete;
        RequestOutcome &o = outcomes[e.outcome];
        o.dropped = kind == Retirement::Drop;
        o.cancelled = kind == Retirement::Cancel;
        if (completed)
            o.result = e.sess->finalize();
        o.finish_s = clock;
        o.latency_s = clock - e.req.arrival_s;
        o.admit_s = e.first_admit_s >= 0.0 ? e.first_admit_s : clock;
        o.queue_s = std::max(0.0, o.admit_s - e.req.arrival_s);
        o.prefill_s = chunked && e.prefill_ready_s >= 0.0
                          ? std::max(0.0, e.prefill_ready_s - o.admit_s)
                          : 0.0;
        o.prefill_chunks = e.chunks;
        o.preemptions = e.preemptions;
        o.swaps = e.swaps;
        o.cached_tokens = e.cached;
        o.max_itl_s = e.itl_max_s;
        if (e.first_token_s >= 0.0) {
            o.ttft_s = e.first_token_s - e.req.arrival_s;
            o.mean_itl_s =
                ratio(e.itl_sum_s, static_cast<double>(e.itl_gaps));
        }
        if (kind != Retirement::Cancel) {
            o.slo = obs::judge(opts.slo.tier(tierOf(e)), completed,
                               o.ttft_s, o.max_itl_s, o.latency_s);
        }
        if (controlled)
            online_attained[e.req.id] = completed && o.slo.attained();
        switch (kind) {
        case Retirement::Drop:
            ++fleet.dropped;
            decision(obs::TraceDecision::Drop, e.req.id);
            break;
        case Retirement::Cancel:
            ++fleet.cancelled;
            decision(obs::TraceDecision::Cancel, e.req.id);
            break;
        case Retirement::Complete:
            if (o.slo.attained())
                slo_tokens += static_cast<long>(e.streamed);
            if (tracing) {
                // Lifetime flow arrow: first admission -> completion.
                obs::TraceEvent ev;
                ev.kind = obs::TraceKind::RequestFlow;
                ev.t0 = o.admit_s;
                ev.t1 = clock;
                ev.device = static_cast<int>(e.device);
                ev.request = e.req.id;
                trace.push_back(std::move(ev));
            }
            break;
        }
        itl_sum += e.itl_sum_s;
        itl_gaps += e.itl_gaps;
    }

    template <class Queue>
    void dropExpired(Queue &q)
    {
        for (size_t i = 0; i < q.size();) {
            const Request &r = q[i].req;
            if (r.deadline_s > 0.0 && clock > r.deadline_s) {
                retire(q[i], Retirement::Drop);
                q.erase(q.begin() + static_cast<long>(i)); // KV frees here
            } else {
                ++i;
            }
        }
    }

    /**
     * Earliest STRICTLY FUTURE modeled event: an arrival, a prefill
     * device finishing its chunk (or a finished prompt's completion
     * time), or an in-flight DMA landing. Already-due events were
     * handled at this boundary, so only t > clock counts; infinity means
     * nothing is pending.
     */
    double nextEvent()
    {
        double next = std::numeric_limits<double>::infinity();
        const auto consider = [&](double t) {
            if (t > clock)
                next = std::min(next, t);
        };
        if (!waiting.empty())
            consider(waiting.front().req.arrival_s);
        for (const auto &p : prefilling)
            consider(p.pf_done ? p.pf_done_s : pf_free_at[prefillSlot(p)]);
        forEachLive([&](const Entry &e) {
            if (e.sess->awaitingTransfer())
                consider(e.xfer_ready_s);
        });
        return next;
    }

    /**
     * Adaptive control plane: every epoch window the modeled clock has
     * fully passed is reduced (covered-span rates, verdicts known so
     * far) and fed to the controller; sampled knob changes land HERE, at
     * an iteration boundary, before any admission or planning reads
     * them.
     */
    void closeEpochs()
    {
        if (!controlled)
            return;
        const double ep_w = ctl.epochSeconds();
        while (t0 + static_cast<double>(ctl_epoch + 1) * ep_w <= clock) {
            const obs::TimelineWindow win =
                ctl_tl.reduce(ctl_epoch, clock, [&](uint64_t id) {
                    const auto it = online_attained.find(id);
                    return it == online_attained.end() || it->second;
                });
            const int changed = ctl.decide(clock, win);
            ++ctl_epoch;
            if (changed == 0)
                continue;
            decision(obs::TraceDecision::KnobChange, 0, changed);
            const ControllerKnobs &k = ctl.knobs();
            if (chunked && k.chunk_tokens != pf_opts.chunk_tokens) {
                pf_opts.chunk_tokens = k.chunk_tokens;
                planner = PrefillPlanner(pf_opts);
            }
            // Per-tier speculation aggressiveness applies to every LIVE
            // session forward in time (frozen swapped sessions included
            // — they resume under the current policy).
            forEachLive([&](Entry &e) { applyExitThreshold(e); });
        }
    }

    /**
     * Iteration boundary: a transfer whose channel time has passed
     * unpins its session's blocks; admission and stepping below then see
     * the settled state.
     */
    void settleLanded()
    {
        forEachLive([&](Entry &e) {
            if (e.sess->awaitingTransfer() && clock >= e.xfer_ready_s) {
                e.sess->endTransfer();
                fleet.transfer_bytes_received += e.xfer_bytes;
            }
        });
    }

    /**
     * Deadline drops, queue by queue in this order (fleet ITL sums
     * accumulate in drop order). A dropped active or swapped session's
     * device or host KV frees with the entry; a dropped prefilling
     * prompt's device stays busy until its in-flight chunk's modeled end
     * — dead work, like a dropped decode's last iteration; a dropped
     * handoff settles its in-flight DMA in retire().
     */
    void expire()
    {
        dropExpired(active);
        dropExpired(waiting);
        dropExpired(swappedQ);
        dropExpired(prefilling);
        dropExpired(handoffQ);
    }

    /**
     * Disaggregation: finished prompts whose prefill-device timeline has
     * passed hand their KV off toward the decode fleet — before
     * admission, so a handoff that just became ready can take a decode
     * slot at this very boundary and its freed prefill device can take
     * the next prompt. With overlap the KV streams over the prefill
     * device's peer channel, concurrent with its next prompt's chunks and
     * with the decode batch; serialized, it pays at decode admission.
     */
    void startHandoffs()
    {
        for (size_t i = 0; i < prefilling.size();) {
            const Entry &p = prefilling[i];
            if (!p.pf_done || clock < p.pf_done_s) {
                ++i;
                continue;
            }
            Entry e = take(prefilling, i);
            if (e.prefill_ready_s < 0.0)
                e.prefill_ready_s = e.pf_done_s;
            cacheInsert(e);
            e.handoff_s = e.sess->chargeHandoff();
            e.xfer_bytes = mem.kvBytes(e.sess->modeledPositions());
            ++fleet.handoffs;
            decision(obs::TraceDecision::Handoff, e.req.id);
            fleet.handoff_gb += hw::MemoryTracker::toGiB(e.xfer_bytes);
            fleet.transfer_bytes_sent += e.xfer_bytes;
            if (overlap)
                submitTransfer(e, hw::DmaChannel::Peer, e.handoff_s);
            handoffQ.push_back(std::move(e));
        }
    }

    /**
     * Decode-slot admission. Swap-ins compete for free slots with fresh
     * prompts (unified) or with finished prompts arriving over the peer
     * link (disaggregated — raw prompts ingest on the prefill devices
     * instead), tier-first (interactive before batch, everywhere) and
     * FIFO within each tier; at equal tier a swapped session wins — it
     * is older admitted work holding host memory and prior progress. A
     * batch-tier session frozen in the host pool therefore never delays
     * an interactive prompt, exactly like a recompute victim waiting in
     * the queue. An empty fleet always takes a candidate (progress
     * guarantee: the budget gates only apply alongside active peers).
     */
    void admitDecodeSlots()
    {
        std::deque<Entry> &feed = disagg ? handoffQ : waiting;
        while (active.size() < slots) {
            const size_t sw = pickTierFirst(swappedQ, &FleetState::settled);
            const size_t cand =
                disagg ? pickTierFirst(handoffQ, &FleetState::settled)
                       : pickTierFirst(waiting, &FleetState::arrived);
            const bool have_sw = sw < swappedQ.size();
            const bool have_new = cand < feed.size();
            if (!have_sw && !have_new)
                break;
            const long n_after = static_cast<long>(active.size() + 1);
            const bool gated = !active.empty();
            if (have_sw && (!have_new || tierOf(swappedQ[sw]) <=
                                             tierOf(feed[cand]))) {
                if (gated &&
                    !fitsBudget(swappedQ[sw].sess->hostBlocks(), n_after))
                    break;
                swapIn(take(swappedQ, sw));
                continue;
            }
            if (disagg) {
                // A handoff admission's blocks are already in
                // fleetBlocks() (they allocated at ingestion); only the
                // per-iteration growth reserve gates the slot.
                if (gated && !fitsBudget(0, n_after))
                    break;
                Entry e = take(handoffQ, cand);
                e.device = nextDecodeDevice();
                // Serialized handoff: the peer-link stream pays on the
                // fleet clock at the decode boundary, like the
                // serialized swap DMAs.
                if (!overlap)
                    submitTransfer(e, hw::DmaChannel::Peer, e.handoff_s);
                active.push_back(std::move(e));
                continue;
            }
            const Entry &head = waiting[cand];
            if (gated && !(fitsBudget(admitBlocks(head), n_after) &&
                           fitsWatermark(head, n_after)))
                break;
            Entry e = take(waiting, cand);
            startSession(e, nextDecodeDevice());
            if (!chunked) {
                // Atomic legacy prefill: free and instantaneous. A
                // full-prompt cache hit already completed it.
                if (!e.sess->prefillDone())
                    e.sess->prefill();
                e.prefill_ready_s = clock;
                cacheInsert(e);
            }
            active.push_back(std::move(e));
        }
    }

    /**
     * Disaggregated prefill admission: arrived requests start chunked
     * ingestion on a free prefill device. Bounded so the prefill side
     * (ingesting prompts + queued handoffs) never outgrows the pool
     * headroom sized at construction.
     */
    void admitPrefillDevices()
    {
        if (!disagg)
            return;
        while (static_cast<int>(prefilling.size()) < n_prefill_dev &&
               prefilling.size() + handoffQ.size() <
                   slots + static_cast<size_t>(n_prefill_dev)) {
            const size_t cand =
                pickTierFirst(waiting, &FleetState::arrived);
            if (cand == waiting.size())
                break;
            const Entry &head = waiting[cand];
            // Progress guarantee: with no session anywhere in the fleet,
            // admit unconditionally.
            const bool fleet_empty =
                active.empty() && prefilling.empty() && handoffQ.empty();
            const long n_after =
                static_cast<long>(active.size() + prefilling.size() + 1);
            if (!fleet_empty && !(fitsBudget(admitBlocks(head), n_after) &&
                                  fitsWatermark(head, n_after)))
                break;
            Entry e = take(waiting, cand);
            // First free prefill device (at most n_prefill_dev entries
            // ingest at once, so one always exists).
            std::vector<bool> busy(static_cast<size_t>(n_prefill_dev));
            for (const auto &p : prefilling)
                busy[prefillSlot(p)] = true;
            const auto local = static_cast<size_t>(
                std::find(busy.begin(), busy.end(), false) - busy.begin());
            specee_assert(local < busy.size(), "no free prefill device");
            startSession(e, static_cast<size_t>(n_decode_dev) + local);
            // A full-prompt cache hit skips the device entirely: the
            // prompt is ready now and only the handoff remains.
            e.pf_done = e.sess->prefillDone();
            e.pf_done_s = clock;
            prefilling.push_back(std::move(e));
        }
    }

    /**
     * Disaggregated prefill devices run their own timelines: one chunk
     * per free prefill device, issued at this boundary and complete at
     * clock + chunk time. A device freed between boundaries waits for
     * the next one — conservative and causal, so results are
     * bit-identical across worker counts.
     */
    void runPrefillDevices()
    {
        for (auto &p : prefilling) {
            const size_t d = prefillSlot(p);
            if (p.pf_done || pf_free_at[d] > clock)
                continue;
            const int remaining = p.sess->prefillRemaining();
            if (remaining > 0) {
                const int chunk = std::min(pf_opts.chunk_tokens, remaining);
                const int consumed = p.sess->prefillChunk(chunk);
                const auto &c = p.sess->lastStep();
                const double dt_pf = c.shared_s + c.private_s;
                fleet.energy_j += c.shared_j + c.private_j;
                fleet.prefill_busy_s += dt_pf;
                pf_free_at[d] = clock + dt_pf;
                ++p.chunks;
                ++fleet.prefill_chunks;
                fleet.prefill_tokens += consumed;
                if (tracing) {
                    // Chunk span on the prefill device's own decoupled
                    // timeline.
                    obs::TraceEvent ev;
                    ev.kind = obs::TraceKind::PrefillChunk;
                    ev.t0 = clock;
                    ev.t1 = pf_free_at[d];
                    ev.device = static_cast<int>(p.device);
                    ev.request = p.req.id;
                    ev.tokens = consumed;
                    ev.deepest_layer = c.deepest_layer;
                    ev.stages_used = c.stages_used;
                    ev.op_s = c.class_s;
                    trace.push_back(std::move(ev));
                }
            }
            if (p.sess->prefillDone()) {
                p.pf_done = true;
                p.pf_done_s = remaining > 0 ? pf_free_at[d] : clock;
            }
        }
    }

    /**
     * Idle decode fleet: jump to the earliest future event — the next
     * arrival, a prefill device finishing, or an in-flight DMA landing.
     * (Anything already due was admitted or settled above, so the event
     * is genuinely in the future; infinity means the fleet is drained.)
     */
    void idleJump()
    {
        const double next = nextEvent();
        if (std::isfinite(next)) {
            clock = next;
            return;
        }
        specee_assert(!pending(), "idle fleet stalled with pending work");
    }

    /**
     * KV pressure: evict sessions until the worst case of the next
     * iteration fits the fleet budget. Victims are chosen batch-tier
     * first (youngest batch session), then youngest overall; the oldest
     * session is never evicted (guaranteed progress). Each victim is
     * served by the configured preemption mechanism: recompute throws
     * its run away (a partially prefilled victim re-ingests its chunks
     * from scratch like a mid-decode victim re-decodes), swap freezes it
     * in the host pool with all progress intact, and auto compares the
     * modeled swap round trip against the modeled cost of replaying the
     * victim's work so far.
     */
    void preempt()
    {
        while (!fitsBudget(0, static_cast<long>(active.size() +
                                                prefilling.size()))) {
            // Cached blocks are the lowest residency tier: drain the
            // cache LRU-first before preempting any live session. An
            // eviction may free no physical blocks (a session still
            // shares them) — the loop keeps draining until pressure
            // clears or the cache is empty.
            if (cache_on && cache->evictLru())
                continue;
            if (active.size() <= 1)
                break;
            // Victim choice: batch tier first, then the session FURTHEST
            // from its deadline — largest slack, treating no deadline as
            // infinite slack — youngest-first on exact ties (the scan
            // runs youngest to oldest and only a strictly better
            // candidate replaces). Evicting the max-slack session keeps
            // near-deadline work running: the old tier-only rule would
            // evict a victim with seconds of slack and re-admit it past
            // its deadline. Without deadlines every slack is infinite and
            // this reduces bit-identically to the legacy youngest-batch-
            // else-youngest rule.
            size_t vi = active.size();
            int vi_tier = -1;
            double vi_slack = 0.0;
            for (size_t i = active.size(); i-- > 1;) {
                if (active[i].sess->awaitingTransfer())
                    continue; // blocks pinned by an in-flight DMA
                const int tier = tierOf(active[i]);
                const double slack =
                    active[i].req.deadline_s > 0.0
                        ? active[i].req.deadline_s - clock
                        : std::numeric_limits<double>::infinity();
                if (vi == active.size() || tier > vi_tier ||
                    (tier == vi_tier && slack > vi_slack)) {
                    vi = i;
                    vi_tier = tier;
                    vi_slack = slack;
                }
            }
            if (vi == active.size())
                break; // everything evictable is mid-transfer
            Entry victim = take(active, vi);
            ++victim.preemptions;
            ++fleet.preemptions;
            const bool swap =
                opts.preempt_mode == PreemptMode::Swap ||
                (opts.preempt_mode == PreemptMode::Auto && has_swap_link &&
                 victim.sess->swapRoundTripSeconds() <
                     victim.sess->modeledCostSoFar());
            decision(swap ? obs::TraceDecision::PreemptSwap
                          : obs::TraceDecision::PreemptRecompute,
                     victim.req.id);
            if (swap) {
                // Swap preemption: KV moves to the host pool (device
                // blocks free), the session freezes with its rng stream,
                // emission and prefill progress intact. Serialized or
                // overlapped, the session cannot swap back in before the
                // DMA lands.
                const double h = victim.sess->swapOut();
                ++victim.swaps;
                ++fleet.swaps_out;
                victim.xfer_bytes =
                    mem.kvBytes(victim.sess->modeledPositions());
                fleet.transfer_bytes_sent += victim.xfer_bytes;
                submitTransfer(victim, hw::DmaChannel::Host, h);
                swappedQ.push_back(std::move(victim));
            } else {
                victim.sess.reset(); // frees the KV blocks
                victim.prefill_ready_s = -1.0;
                victim.chunks = 0;
                // The tree's references on this prompt's blocks (if it
                // was inserted) survive the session — cached content
                // stays valid — but the re-run re-matches and, if
                // needed, re-inserts fresh tail blocks.
                victim.cached = 0;
                victim.sim_adopted = 0;
                victim.cache_inserted = false;
                // Recompute preemption: back to the head of the wait
                // queue (tier-aware admission keeps a batch victim from
                // blocking interactive peers) and re-run from scratch.
                waiting.push_front(std::move(victim));
            }
        }
    }

    /**
     * Plan the mixed iteration (scheduler thread): every decode-ready
     * session steps; mid-prefill sessions run one planned chunk each
     * under the iteration token budget.
     */
    void plan()
    {
        grant.assign(active.size(), 0);
        if (!chunked)
            return;
        std::vector<int> pending(active.size(), 0);
        std::vector<int> rank(active.size(), 0);
        int decodes = 0;
        for (size_t i = 0; i < active.size(); ++i) {
            rank[i] = tierOf(active[i]);
            if (active[i].sess->awaitingTransfer()) {
                // Pinned mid-DMA: neither decodes nor chunks this
                // iteration, so no budget is granted to it.
            } else if (active[i].sess->prefillDone()) {
                ++decodes;
            } else {
                pending[i] = active[i].sess->prefillRemaining();
            }
        }
        // Pipeline backfill: convert last iteration's idle stages into
        // extra budget tokens so queued prefill chunks slot into the
        // bubble the early exits opened. Rounded up: any free stage
        // admits at least one token, so tight budgets still backfill.
        long extra = 0;
        if (staged && opts.stage_backfill &&
            opts.prefill.max_tokens_per_iteration > 0 &&
            free_stages_prev > 0) {
            const long budget = opts.prefill.max_tokens_per_iteration;
            extra = (budget * free_stages_prev + n_stages - 1) / n_stages;
        }
        grant = planner.plan(pending, rank, decodes, extra);
        if (extra <= 0)
            return;
        const std::vector<int> base = planner.plan(pending, rank, decodes);
        for (size_t i = 0; i < grant.size(); ++i) {
            if (grant[i] > base[i]) {
                ++fleet.backfill_grants;
                fleet.backfill_tokens += grant[i] - base[i];
                decision(obs::TraceDecision::BackfillGrant,
                         active[i].req.id, grant[i] - base[i]);
            }
        }
    }

    /** Step worker `eng`'s sessions (on one thread of step()'s). Writes
     * nothing but those sessions and their Entry's grant and cost. */
    void stepEngine(size_t eng)
    {
        for (size_t i = 0; i < active.size(); ++i) {
            Entry &a = active[i];
            if (a.engine != eng)
                continue;
            a.granted = 0;
            a.cost = engines::StepCost{};
            // Blocks still riding the DMA: the session idles at zero
            // cost until the link settles.
            if (a.sess->awaitingTransfer())
                continue;
            if (chunked && !a.sess->prefillDone()) {
                // Budget exhausted by decode peers: the session idles
                // this iteration.
                if (grant[i] <= 0)
                    continue;
                a.granted = a.sess->prefillChunk(grant[i]);
            } else {
                a.sess->step();
            }
            a.cost = a.sess->lastStep();
        }
    }

    /** Step every active session, in parallel by engine. */
    void step()
    {
        step_t0 = clock;
        std::vector<bool> has(engines.size(), false);
        for (const auto &a : active)
            has[a.engine] = true;
        std::vector<size_t> used;
        for (size_t e = 0; e < engines.size(); ++e) {
            if (has[e])
                used.push_back(e);
        }
        // One engine in use steps on this thread; more fan out.
        parallelFor(used.size(), [&](size_t k) { stepEngine(used[k]); });
    }

    /**
     * Trace one Step or PrefillChunk span per session that did work
     * this iteration, in admission order; the slot `i` is the span's
     * lane. A span ends at step_t0 + (shared + private), parenthesized
     * like the pricing, but the clock advance reduces the same costs
     * per device (or per stage), so a span can overhang the new clock
     * by an ulp of fp re-association. Clamp: a span never outlives its
     * iteration, and per-lane spans stay exactly disjoint.
     */
    void stepSpans()
    {
        for (size_t i = 0; i < active.size(); ++i) {
            const Entry &a = active[i];
            if (a.granted <= 0 && a.cost.tokens <= 0)
                continue; // idle: no span
            obs::TraceEvent ev;
            ev.kind = a.granted > 0 ? obs::TraceKind::PrefillChunk
                                    : obs::TraceKind::Step;
            ev.t0 = step_t0;
            ev.t1 = std::min(step_t0 + (a.cost.shared_s + a.cost.private_s),
                             clock);
            ev.device = static_cast<int>(a.device);
            ev.lane = static_cast<int>(i);
            ev.request = a.req.id;
            ev.tokens = a.granted > 0 ? a.granted : a.cost.tokens;
            ev.deepest_layer = a.cost.deepest_layer;
            ev.stages_used = a.cost.stages_used;
            ev.op_s = a.cost.class_s;
            trace.push_back(std::move(ev));
        }
    }

    /**
     * Price the iteration (admission order, deterministic). Each
     * pipeline STAGE's weight stream is read once per iteration, so the
     * shared time is the per-stage max over the batch, summed over
     * stages: sessions with disjoint layer ranges (a shallow exit beside
     * a deep decode) serialize through the pipeline instead of riding
     * free under one batch-wide max. With one stage it is that
     * batch-wide max.
     */
    void price()
    {
        busy_stages = 0;
        for (const auto &a : active) {
            specee_assert(a.cost.stages_used >= 0 &&
                              a.cost.stages_used <= n_stages,
                          "session stage span %d outside [0, %d]",
                          a.cost.stages_used, n_stages);
            specee_assert(a.cost.stage_shared_s.empty() ||
                              a.cost.stage_shared_s.size() ==
                                  static_cast<size_t>(n_stages),
                          "stage cost vector does not match the fleet's "
                          "stage graph");
            busy_stages = std::max(busy_stages, a.cost.stages_used);
        }
        // Each decode device prices its own share of the batch (shared
        // weight-stream time plus its private sum) and the fleet advances
        // in lockstep at the slowest device. One device reproduces the
        // single-device arithmetic bit-identically.
        double dt = 0.0;
        std::vector<double> st, se;
        for (int d = 0; d < n_decode_dev; ++d) {
            double private_t = 0.0, private_e = 0.0;
            st.assign(static_cast<size_t>(n_stages), 0.0);
            se.assign(static_cast<size_t>(n_stages), 0.0);
            for (const auto &a : active) {
                if (static_cast<int>(a.device) != d)
                    continue;
                private_t += a.cost.private_s;
                private_e += a.cost.private_j;
                // An idle (chunk-starved or mid-DMA) session carries an
                // empty vector and no cost.
                if (a.cost.stage_shared_s.empty())
                    continue;
                for (size_t s = 0; s < st.size(); ++s) {
                    st[s] = std::max(st[s], a.cost.stage_shared_s[s]);
                    se[s] = std::max(se[s], a.cost.stage_shared_j[s]);
                }
            }
            double shared_t = 0.0, shared_e = 0.0;
            for (size_t s = 0; s < st.size(); ++s) {
                shared_t += st[s];
                shared_e += se[s];
            }
            dt = std::max(dt, shared_t + private_t);
            fleet.energy_j += shared_e + private_e;
        }
        clock += dt;
        if (tracing)
            stepSpans();
        if (overlap && dt == 0.0) {
            // Every active session is pinned mid-DMA and nothing stepped:
            // jump to the next modeled event (a transfer landing, a
            // prefill device finishing, an arrival) so the fleet never
            // livelocks at a frozen clock.
            const double next = nextEvent();
            specee_assert(std::isfinite(next) && next > clock,
                          "stalled fleet with no future event at %f",
                          clock);
            clock = next;
        }
        occupancy += static_cast<double>(active.size());
        ++fleet.iterations;
        if (tracing) {
            obs::TraceEvent ev;
            ev.kind = obs::TraceKind::Iteration;
            ev.t0 = step_t0;
            ev.t1 = clock;
            int mid_prefill = 0;
            int iter_tokens = 0;
            for (const auto &a : active) {
                if (!a.sess->prefillDone())
                    ++mid_prefill;
                iter_tokens += a.cost.tokens;
            }
            ev.batch = static_cast<int>(active.size());
            ev.prefilling =
                mid_prefill + static_cast<int>(prefilling.size());
            ev.tokens = iter_tokens;
            trace.push_back(std::move(ev));
        }
        // Stage occupancy: every session's weight stream covers the
        // contiguous stage prefix [0, stages_used), so the union is the
        // max span. What's left is next iteration's backfill bubble.
        fleet.stage_busy += busy_stages;
        fleet.peak_stage_occupancy =
            std::max(fleet.peak_stage_occupancy, busy_stages);
        free_stages_prev = n_stages - busy_stages;
    }

    /**
     * Prefill bookkeeping: chunks land at this boundary. Then enforce the
     * cache capacity after this boundary's inserts (transient overshoot
     * is covered by the pool's headroom), and track the cache's
     * footprint at its per-iteration peak.
     */
    void landChunks()
    {
        for (auto &a : active) {
            if (a.granted > 0) {
                ++a.chunks;
                ++fleet.prefill_chunks;
                fleet.prefill_tokens += a.granted;
            } else if (a.cost.tokens > 0) {
                timeline.recordExit(clock, a.cost.deepest_layer);
            }
            if (a.sess->prefillDone() && a.prefill_ready_s < 0.0) {
                a.prefill_ready_s = clock;
                cacheInsert(a);
            }
        }
        if (cache_on) {
            while (cache->heldBlocks() > cache_capacity &&
                   cache->evictLru()) {
            }
            fleet.peak_cached_blocks =
                std::max(fleet.peak_cached_blocks, cache->heldBlocks());
        }
    }

    /**
     * Stream new tokens, tracking TTFT and inter-token gaps. fleet.tokens
     * counts DELIVERED tokens only: a preempted session re-decodes its
     * prefix, but those tokens were already streamed, so the recompute
     * shows up as time and energy (goodput degradation), not as extra
     * throughput.
     */
    void stream()
    {
        for (auto &a : active) {
            const auto &em = a.sess->emission();
            const obs::SloSpec &spec = opts.slo.tier(tierOf(a));
            for (size_t i = a.streamed; i < em.tokens.size(); ++i) {
                ++fleet.tokens;
                const bool first = a.first_token_s < 0.0;
                // TTFT for the first token, the inter-token gap after.
                const double lat = clock - (first ? a.req.arrival_s
                                                  : a.last_token_s);
                record([&](obs::Timeline &t) {
                    t.recordTokens(clock, a.req.id, 1);
                    if (first)
                        t.recordTtft(clock, lat);
                    else
                        t.recordItl(clock, lat);
                });
                // A blown TTFT or ITL bound is a verdict knowable NOW:
                // the retirement judgement cannot un-fail it, so the
                // controller's reward attribution must not keep crediting
                // this request until then.
                const double bound = first ? spec.ttft_s : spec.itl_s;
                if (controlled && bound > 0.0 && lat > bound)
                    online_attained[a.req.id] = false;
                if (first) {
                    a.first_token_s = clock;
                } else {
                    a.itl_sum_s += lat;
                    ++a.itl_gaps;
                    itl_samples.push_back(lat);
                    a.itl_max_s = std::max(a.itl_max_s, lat);
                }
                a.last_token_s = clock;
                if (on_token &&
                    !on_token(TokenEvent{a.req.id, em.tokens[i],
                                         static_cast<int>(i), clock})) {
                    // Streaming backpressure: the consumer cancelled; the
                    // request retires at this boundary and no further
                    // tokens are decoded or delivered.
                    a.cancel = true;
                }
                a.streamed = i + 1;
                if (a.cancel)
                    break;
            }
        }
    }

    /** Fleet KV / memory census (peaks over iterations). */
    void census()
    {
        // Disaggregation: ingesting prompts and queued handoffs hold
        // device KV too (unified fleets keep these empty).
        long positions = 0;
        forEachOnDevice([&](const Entry &e) {
            positions += e.sess->modeledPositions();
        });
        // Peak occupancy is physical (shared and cached blocks counted
        // once) — the same quantity the budget gates read.
        const long blocks = fleetBlocks();
        fleet.peak_kv_blocks = std::max(fleet.peak_kv_blocks, blocks);
        fleet.peak_fleet_mem_gb = std::max(
            fleet.peak_fleet_mem_gb,
            hw::MemoryTracker::toGiB(mem.fleetTotalBytes(
                positions,
                static_cast<int>(active.size() + prefilling.size()))));
        if (overlap) {
            // In-flight census: blocks (and their true-dims bytes) pinned
            // on a DMA channel right now — neither endpoint's settled
            // working set.
            long infl_blocks = 0;
            for (const auto &p : pools)
                infl_blocks += p->transferBlocksInFlight();
            long infl_pos = 0;
            forEachLive([&](const Entry &e) {
                if (e.sess->awaitingTransfer())
                    infl_pos += e.sess->modeledPositions();
            });
            fleet.peak_inflight_kv_blocks =
                std::max(fleet.peak_inflight_kv_blocks, infl_blocks);
            fleet.peak_inflight_mem_gb = std::max(
                fleet.peak_inflight_mem_gb,
                hw::MemoryTracker::toGiB(mem.inflightKvBytes(infl_pos)));
        }
        long host_blocks = 0;
        if (!swappedQ.empty()) {
            long host_positions = 0;
            for (const auto &s : swappedQ) {
                host_blocks += s.sess->hostBlocks();
                host_positions += s.sess->modeledPositions();
            }
            fleet.peak_host_kv_blocks =
                std::max(fleet.peak_host_kv_blocks, host_blocks);
            fleet.peak_host_mem_gb =
                std::max(fleet.peak_host_mem_gb,
                         hw::MemoryTracker::toGiB(
                             mem.hostKvBytes(host_positions)));
        }
        const long cached = cache_on ? cache->heldBlocks() : 0;
        record([&](obs::Timeline &t) {
            t.recordIteration(clock, static_cast<int>(active.size()),
                              busy_stages, blocks, host_blocks, cached);
        });
    }

    /** Retire cancelled and finished sessions; survivors keep their
     * admission order. */
    void retireFinished()
    {
        size_t keep = 0;
        for (size_t i = 0; i < active.size(); ++i) {
            Entry &a = active[i];
            if (a.cancel || a.sess->finished()) {
                retire(a, a.cancel ? Retirement::Cancel
                                   : Retirement::Complete);
                continue; // KV frees with the entry
            }
            if (keep != i)
                active[keep] = std::move(a);
            ++keep;
        }
        active.resize(keep);
    }

    /** Reduce fleet metrics over the finished timeline. */
    FleetStats reduce()
    {
        // --- transfer-engine conservation ------------------------------
        // Every transfer initiated either landed or settled at drop, so
        // the byte census balances exactly (per-transfer bytes are
        // integer-valued doubles well below 2^53, so both sums are exact
        // regardless of accumulation order).
        specee_assert(fleet.transfer_bytes_sent ==
                          fleet.transfer_bytes_received,
                      "transfer-byte conservation violated: %f sent, %f "
                      "received",
                      fleet.transfer_bytes_sent,
                      fleet.transfer_bytes_received);
        fleet.transfer_busy_s = xfer.busySeconds();

        // --- drain the cache: reference-count conservation -------------
        // Every session has retired, so after the cache releases its
        // references every pool must be empty — a leftover block means a
        // retain/release imbalance somewhere in the sharing machinery.
        if (cache_on) {
            fleet.cache_evictions = cache->evictions();
            cache->clear();
            for (const auto &p : pools) {
                specee_assert(p->blocksInUse() == 0,
                              "prefix cache drained but %d paged KV "
                              "blocks are still referenced",
                              p->blocksInUse());
            }
        }

        for (const auto &p : pools)
            fleet.kv_materialized_blocks += p->materializedBlocks();

        fleet.requests = static_cast<long>(outcomes.size());
        fleet.makespan_s = clock - t0;
        fleet.tokens_per_s =
            ratio(static_cast<double>(fleet.tokens), fleet.makespan_s);

        std::vector<double> latencies, queues, ttfts, prefills;
        for (const auto &o : outcomes) {
            if (o.dropped || o.cancelled)
                continue;
            latencies.push_back(o.latency_s);
            queues.push_back(o.queue_s);
            ttfts.push_back(o.ttft_s);
            prefills.push_back(o.prefill_s);
            fleet.oplog.merge(o.result.stats.oplog);
        }
        // Means accumulate in insertion order (bit-compat with the
        // pre-Stats reduction); each Stats sorts its samples once and
        // serves both percentile queries.
        const metrics::Stats lat_stats(latencies);
        const metrics::Stats ttft_stats(ttfts);
        const metrics::Stats itl_stats(itl_samples);
        fleet.mean_latency_s = metrics::mean(latencies);
        fleet.p50_latency_s = lat_stats.percentile(50.0);
        fleet.p99_latency_s = lat_stats.percentile(99.0);
        fleet.mean_queue_s = metrics::mean(queues);
        fleet.mean_ttft_s = metrics::mean(ttfts);
        fleet.p50_ttft_s = ttft_stats.percentile(50.0);
        fleet.p99_ttft_s = ttft_stats.percentile(99.0);
        fleet.mean_prefill_s = metrics::mean(prefills);
        fleet.mean_itl_s =
            ratio(itl_sum, static_cast<double>(itl_gaps));
        fleet.p50_itl_s = itl_stats.percentile(50.0);
        fleet.p99_itl_s = itl_stats.percentile(99.0);
        const auto iterations = static_cast<double>(fleet.iterations);
        fleet.energy_per_token_j =
            ratio(fleet.energy_j, static_cast<double>(fleet.tokens));
        fleet.avg_power_w = ratio(fleet.energy_j, fleet.makespan_s);
        fleet.mean_batch_occupancy = ratio(occupancy, iterations);
        fleet.pipeline_utilization =
            ratio(static_cast<double>(fleet.stage_busy),
                  iterations * n_stages);

        // --- SLO attainment + observability artifacts ------------------
        for (const auto &o : outcomes) {
            if (!o.slo.evaluated)
                continue;
            ++fleet.slo_evaluated;
            if (o.slo.attained())
                ++fleet.slo_attained;
        }
        fleet.goodput_under_slo =
            ratio(static_cast<double>(slo_tokens), fleet.makespan_s);
        if (tracing) {
            obs::sortTrace(trace);
            fleet.trace = std::move(trace);
        }
        if (timeline.enabled()) {
            std::unordered_set<uint64_t> attained;
            for (const auto &o : outcomes)
                if (!o.dropped && !o.cancelled && o.slo.attained())
                    attained.insert(o.request.id);
            fleet.timeline = timeline.finalize(
                clock, [&](uint64_t id) { return attained.count(id) > 0; });
        }
        if (controlled)
            fleet.controller = ctl.stats();
        return std::move(fleet);
    }
};

} // namespace

FleetStats
runScheduler(const SchedulerOptions &opts, const engines::Pipeline &pipe,
             std::vector<engines::Engine *> engines,
             std::vector<Request> requests,
             std::vector<RequestOutcome> &outcomes,
             const TokenCallback &on_token)
{
    specee_assert(opts.max_batch >= 1, "max_batch must be >= 1, got %d",
                  opts.max_batch);
    specee_assert(opts.kv_budget_blocks >= 0,
                  "kv_budget_blocks must be >= 0, got %d",
                  opts.kv_budget_blocks);
    specee_assert(opts.kv_watermark >= 0.0 && opts.kv_watermark <= 1.0,
                  "kv_watermark must be in [0, 1], got %f",
                  opts.kv_watermark);
    specee_assert(opts.prefix_cache.capacity_blocks >= 0,
                  "prefix_cache.capacity_blocks must be >= 0, got %d",
                  opts.prefix_cache.capacity_blocks);
    specee_assert(opts.timeline.window_s >= 0.0,
                  "timeline.window_s must be >= 0, got %f",
                  opts.timeline.window_s);
    specee_assert(opts.topology.devices >= 1,
                  "topology.devices must be >= 1, got %d",
                  opts.topology.devices);
    specee_assert(opts.topology.prefill_devices >= 0 &&
                      opts.topology.prefill_devices <
                          opts.topology.devices,
                  "topology.prefill_devices must be in [0, devices), "
                  "got %d of %d",
                  opts.topology.prefill_devices, opts.topology.devices);
    specee_assert(opts.topology.prefill_devices == 0 ||
                      opts.prefill.chunk_tokens > 0,
                  "disaggregated prefill devices need chunked prefill "
                  "(prefill.chunk_tokens > 0)");
    PrefillPlanner(opts.prefill); // validates the prefill knobs
    // Validate the controller's arm sets eagerly (fail fast here,
    // not at the first decision epoch). The exit defaults are
    // placeholders — arm validation never reads them.
    AdaptiveController(opts.controller,
                       ControllerKnobs{opts.prefill.chunk_tokens, 0.5f,
                                       0.5f});

    outcomes.clear();
    if (requests.empty())
        return FleetStats{};
    specee_assert(!engines.empty(), "scheduler needs >= 1 engine");
    // Admission order never depends on submission interleaving.
    std::sort(requests.begin(), requests.end(), arrivesBefore);
    requireUniqueIds(requests, "runScheduler");

    FleetState fs(opts, pipe, std::move(engines), std::move(requests),
                  outcomes, on_token);
    while (fs.pending()) {
        fs.closeEpochs();
        fs.settleLanded();
        fs.expire();
        fs.startHandoffs();
        fs.admitDecodeSlots();
        fs.admitPrefillDevices();
        fs.runPrefillDevices();
        if (fs.active.empty()) {
            fs.idleJump();
            continue;
        }
        fs.preempt();
        fs.plan();
        fs.step();
        fs.price();
        fs.landChunks();
        fs.stream();
        fs.census();
        fs.retireFinished();
    }
    return fs.reduce();
}

} // namespace specee::serve
