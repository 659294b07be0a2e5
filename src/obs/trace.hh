/**
 * @file
 * Fleet event trace: typed records of everything the scheduler did,
 * exportable as Chrome trace-event JSON (Perfetto-loadable).
 *
 * The scheduler (and the worker threads stepping its sessions)
 * record typed events — iteration boundaries with batch composition,
 * per-session step spans carrying the op-class cost breakdown and
 * the early-exit depth, scheduler decisions (admit / drop /
 * preempt / resume / cache-hit / backfill-grant / handoff), and DMA
 * channel busy spans — against the MODELED clock only. Recording is
 * pure appending: turning the trace on or off never changes
 * emissions or modeled costs (pinned by test, like every other
 * scheduler knob).
 *
 * Threading: engines step their sessions in parallel, so the
 * recorder is sharded — each engine appends to its own shard (one
 * thread at a time steps an engine) and the scheduler thread to a
 * control shard, lock-free because no shard is ever shared. merged()
 * then sorts every shard's events by (time, track, kind, seq,
 * request): worker events carry their admission-order slot as `seq`,
 * so the merged trace is bit-identical no matter how many workers
 * recorded it or which shard an event landed in.
 *
 * Export maps devices (and their DMA channels) to Perfetto tracks:
 * one process per modeled device plus a fleet/scheduler process,
 * step spans fanned out across per-slot threads so concurrent
 * sessions never overlap within one track, decisions as instant
 * events, and request lifetimes as flow arrows from admission to
 * completion. Load the file at https://ui.perfetto.dev or
 * chrome://tracing.
 */

#ifndef SPECEE_OBS_TRACE_HH
#define SPECEE_OBS_TRACE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace specee::obs {

/** Event types a fleet trace records. */
enum class TraceKind : int {
    Iteration = 0, ///< fleet-track span: one scheduler iteration
    Step,          ///< device-track span: one session decode step
    PrefillChunk,  ///< device-track span: one prompt chunk ingested
    Transfer,      ///< DMA busy span (swap / handoff / restore)
    Decision,      ///< fleet-track instant: a scheduler decision
    RequestFlow,   ///< flow arrow: first admission -> completion
};

/** Scheduler decisions recorded as instant events. */
enum class TraceDecision : int {
    Admit = 0,        ///< waiting request entered execution
    WatermarkReject,  ///< admission blocked by the KV watermark
    Drop,             ///< deadline expired
    Cancel,           ///< consumer cancelled the stream
    PreemptRecompute, ///< victim evicted, will re-run from scratch
    PreemptSwap,      ///< victim frozen to the host pool
    Resume,           ///< swapped session restored to a decode slot
    CacheHit,         ///< admission adopted a cached prefix
    BackfillGrant,    ///< prefill tokens granted into a pipeline bubble
    Handoff,          ///< prefill->decode KV stream initiated
    KnobChange,       ///< adaptive controller changed scheduler knobs
};

/** Printable names (JSON event names). */
const char *traceKindName(TraceKind k);
const char *traceDecisionName(TraceDecision d);

/** One recorded event. Instants have t1 == t0. */
struct TraceEvent
{
    TraceKind kind = TraceKind::Decision;
    double t0 = 0.0; ///< modeled seconds (fleet clock)
    double t1 = 0.0;

    /** Logical device track; -1 = the fleet/scheduler track. */
    int device = -1;
    /** DMA channel for Transfer events (hw::DmaChannel value). */
    int channel = -1;
    /** Per-device sub-track (admission-order slot) for step spans. */
    int lane = 0;

    uint64_t request = 0; ///< 0 = no single request (e.g. KnobChange)
    TraceDecision decision = TraceDecision::Admit;

    int tokens = 0;        ///< committed / granted / cached tokens
    int deepest_layer = 0; ///< step spans: early-exit depth
    int stages_used = 0;   ///< step spans: pipeline stages occupied
    int batch = 0;         ///< iteration spans: decode-slot sessions
    int prefilling = 0;    ///< iteration spans: mid-prefill sessions

    /**
     * Deterministic same-time tiebreak: the control shard stamps a
     * monotonic counter (scheduler decisions replay identically for
     * any worker count); worker shards stamp the session's
     * admission-order slot in the active batch.
     */
    uint64_t seq = 0;

    /**
     * Step spans: modeled seconds per op class, (hw::OpClass value,
     * seconds) for every class the step charged. Sums to the span
     * length.
     */
    std::vector<std::pair<int, double>> op_s;
};

/** Trace knobs. Off (default) records and allocates nothing. */
struct TraceOptions
{
    bool enabled = false;
};

/** One thread's private append-only event buffer. */
class TraceShard
{
  public:
    void emit(TraceEvent e) { events_.push_back(std::move(e)); }
    const std::vector<TraceEvent> &events() const { return events_; }
    size_t size() const { return events_.size(); }

    /**
     * Clamp the end of every event from index `from` on to `t_max`.
     * The scheduler uses this to pin worker step spans inside their
     * iteration: the clock advance is priced from per-device (or
     * per-stage) reductions whose fp rounding can land an ulp below
     * a single session's cost sum, and a span must never outlive
     * the iteration that charged it.
     */
    void clampEnds(size_t from, double t_max)
    {
        for (size_t i = from; i < events_.size(); ++i)
            if (events_[i].t1 > t_max)
                events_[i].t1 = t_max;
    }

  private:
    std::vector<TraceEvent> events_;
};

/**
 * Sharded fleet-trace recorder: one shard per worker engine plus a
 * control shard for the scheduler thread. Shards are plain vectors a
 * single thread appends to — no locks, no atomics — merged into one
 * deterministic sequence after the workers join.
 */
class TraceRecorder
{
  public:
    TraceRecorder(size_t n_workers, bool enabled);

    bool enabled() const { return enabled_; }

    /** The scheduler thread's shard. */
    TraceShard &control() { return shards_.back(); }
    /** Engine `i`'s shard (exclusive to the thread stepping it). */
    TraceShard &worker(size_t i) { return shards_[i]; }

    /**
     * All shards' events in one deterministic order: sorted by
     * (t0, device, kind, seq, request, channel, lane, t1). The
     * result is bit-identical for any worker count recording the
     * same modeled run. Empty while disabled.
     */
    std::vector<TraceEvent> merged() const;

  private:
    std::vector<TraceShard> shards_;
    bool enabled_;
};

/**
 * Render merged events as Chrome trace-event JSON. Processes:
 * pid 0 = fleet/scheduler, pid 1+d = modeled device d (named by its
 * prefill/decode role). Threads within a device: one per step-span
 * lane, plus one per DMA channel. Requests become flow events
 * (ph "s"/"f") keyed by request id.
 */
std::string chromeTraceJson(const std::vector<TraceEvent> &events,
                            int n_devices, int n_prefill_devices);

/** Write chromeTraceJson to `path`. @return false on I/O failure. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<TraceEvent> &events,
                      int n_devices, int n_prefill_devices);

} // namespace specee::obs

#endif // SPECEE_OBS_TRACE_HH
