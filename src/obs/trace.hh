/**
 * @file
 * Fleet event trace: typed records of everything the scheduler did,
 * exportable as Chrome trace-event JSON (Perfetto-loadable).
 *
 * The scheduler records typed events — iteration boundaries with
 * batch composition, per-session step spans carrying the op-class
 * cost breakdown and the early-exit depth, scheduler decisions
 * (admit / drop / preempt / resume / cache-hit / backfill-grant /
 * handoff), and DMA channel busy spans — against the MODELED clock
 * only. Recording is pure appending: turning the trace on or off
 * never changes emissions or modeled costs (pinned by test, like
 * every other scheduler knob).
 *
 * Threading: one writer. Worker threads only step sessions; every
 * event, step spans included, is appended on the scheduler thread
 * at phase boundaries (step spans in admission order right after an
 * iteration is priced). Emission order therefore never depends on
 * the worker count, and sortTrace() puts the events in time order
 * by (time, track, kind) with ties kept in emission order, so the
 * trace is bit-identical no matter how many workers ran the fleet.
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
    /**
     * Step spans: per-device sub-track, the session's admission-order
     * slot in the active batch (never a worker or engine index).
     */
    int lane = 0;

    uint64_t request = 0; ///< 0 = no single request (e.g. KnobChange)
    TraceDecision decision = TraceDecision::Admit;

    int tokens = 0;        ///< committed / granted / cached tokens
    int deepest_layer = 0; ///< step spans: early-exit depth
    int stages_used = 0;   ///< step spans: pipeline stages occupied
    int batch = 0;         ///< iteration spans: decode-slot sessions
    int prefilling = 0;    ///< iteration spans: mid-prefill sessions

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

/**
 * Stable-sort `events` into trace order: by (t0, device, kind), ties
 * kept in emission order.
 */
void sortTrace(std::vector<TraceEvent> &events);

/**
 * Render sorted events as Chrome trace-event JSON. Processes:
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
