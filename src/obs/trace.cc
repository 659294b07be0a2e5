#include "obs/trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <tuple>

#include "hw/hardware_model.hh"
#include "util/logging.hh"

namespace specee::obs {

const char *
traceKindName(TraceKind k)
{
    switch (k) {
    case TraceKind::Iteration:
        return "iteration";
    case TraceKind::Step:
        return "step";
    case TraceKind::PrefillChunk:
        return "prefill_chunk";
    case TraceKind::Transfer:
        return "transfer";
    case TraceKind::Decision:
        return "decision";
    case TraceKind::RequestFlow:
        return "request";
    }
    return "?";
}

const char *
traceDecisionName(TraceDecision d)
{
    switch (d) {
    case TraceDecision::Admit:
        return "admit";
    case TraceDecision::WatermarkReject:
        return "watermark_reject";
    case TraceDecision::Drop:
        return "drop";
    case TraceDecision::Cancel:
        return "cancel";
    case TraceDecision::PreemptRecompute:
        return "preempt_recompute";
    case TraceDecision::PreemptSwap:
        return "preempt_swap";
    case TraceDecision::Resume:
        return "resume";
    case TraceDecision::CacheHit:
        return "cache_hit";
    case TraceDecision::BackfillGrant:
        return "backfill_grant";
    case TraceDecision::Handoff:
        return "handoff";
    case TraceDecision::KnobChange:
        return "knob_change";
    }
    return "?";
}

void
sortTrace(std::vector<TraceEvent> &events)
{
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return std::tie(a.t0, a.device, a.kind) <
                                std::tie(b.t0, b.device, b.kind);
                     });
}

namespace {

/** Microsecond timestamp with fixed (deterministic) formatting. */
void
appendUs(std::string &out, double seconds)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
    out += buf;
}

void
appendCommon(std::string &out, const char *name, const char *ph,
             double t, int pid, long tid)
{
    out += "{\"name\":\"";
    out += name;
    out += "\",\"ph\":\"";
    out += ph;
    out += "\",\"ts\":";
    appendUs(out, t);
    out += ",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":";
    out += std::to_string(tid);
}

void
appendMeta(std::string &out, int pid, long tid, const char *what,
           const std::string &name, bool &first)
{
    if (!first)
        out += ",\n";
    first = false;
    out += "{\"name\":\"";
    out += what;
    out += "\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(pid);
    if (tid >= 0) {
        out += ",\"tid\":";
        out += std::to_string(tid);
    }
    out += ",\"args\":{\"name\":\"";
    out += name;
    out += "\"}}";
}

/// Thread ids inside one device process: step lanes first, DMA
/// channels on a high offset so lanes can grow without colliding.
constexpr long kChannelTidBase = 1000;

} // namespace

std::string
chromeTraceJson(const std::vector<TraceEvent> &events, int n_devices,
                int n_prefill_devices)
{
    specee_assert(n_devices >= 1, "trace export needs >= 1 device");
    const int n_decode = n_devices - n_prefill_devices;
    std::string out;
    out.reserve(events.size() * 160 + 1024);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    appendMeta(out, 0, -1, "process_name", "fleet scheduler", first);
    appendMeta(out, 0, 0, "thread_name", "iterations", first);
    appendMeta(out, 0, 1, "thread_name", "decisions", first);
    for (int d = 0; d < n_devices; ++d) {
        const std::string role =
            d < n_decode
                ? "decode device " + std::to_string(d)
                : "prefill device " + std::to_string(d - n_decode);
        appendMeta(out, d + 1, -1, "process_name", role, first);
        appendMeta(out, d + 1, kChannelTidBase + 0, "thread_name",
                   "dma.host", first);
        appendMeta(out, d + 1, kChannelTidBase + 1, "thread_name",
                   "dma.peer", first);
    }

    for (const auto &e : events) {
        if (!first)
            out += ",\n";
        first = false;
        const int pid = e.device + 1;
        switch (e.kind) {
        case TraceKind::Iteration: {
            appendCommon(out, "iteration", "X", e.t0, 0, 0);
            out += ",\"dur\":";
            appendUs(out, e.t1 - e.t0);
            out += ",\"args\":{\"batch\":";
            out += std::to_string(e.batch);
            out += ",\"prefilling\":";
            out += std::to_string(e.prefilling);
            out += ",\"tokens\":";
            out += std::to_string(e.tokens);
            out += "}}";
            break;
        }
        case TraceKind::Step:
        case TraceKind::PrefillChunk: {
            appendCommon(out, traceKindName(e.kind), "X", e.t0, pid,
                         e.lane);
            out += ",\"dur\":";
            appendUs(out, e.t1 - e.t0);
            out += ",\"args\":{\"request\":";
            out += std::to_string(e.request);
            out += ",\"tokens\":";
            out += std::to_string(e.tokens);
            out += ",\"deepest_layer\":";
            out += std::to_string(e.deepest_layer);
            out += ",\"stages_used\":";
            out += std::to_string(e.stages_used);
            for (const auto &[cls, s] : e.op_s) {
                out += ",\"op.";
                out += hw::opClassName(static_cast<hw::OpClass>(cls));
                out += "\":";
                char buf[64];
                std::snprintf(buf, sizeof(buf), "%.9e", s);
                out += buf;
            }
            out += "}}";
            break;
        }
        case TraceKind::Transfer: {
            appendCommon(out, "transfer", "X", e.t0, pid,
                         kChannelTidBase + e.channel);
            out += ",\"dur\":";
            appendUs(out, e.t1 - e.t0);
            out += ",\"args\":{\"request\":";
            out += std::to_string(e.request);
            out += ",\"channel\":\"";
            out += e.channel == 0 ? "host" : "peer";
            out += "\"}}";
            break;
        }
        case TraceKind::Decision: {
            appendCommon(out, traceDecisionName(e.decision), "i",
                         e.t0, 0, 1);
            out += ",\"s\":\"p\",\"args\":{\"request\":";
            out += std::to_string(e.request);
            out += ",\"tokens\":";
            out += std::to_string(e.tokens);
            out += "}}";
            break;
        }
        case TraceKind::RequestFlow: {
            // One flow arrow per request: admission (fleet decisions
            // track) to completion (its device's first lane).
            appendCommon(out, "request", "s", e.t0, 0, 1);
            out += ",\"cat\":\"request\",\"id\":";
            out += std::to_string(e.request);
            out += "},\n";
            appendCommon(out, "request", "f", e.t1, pid, 0);
            out += ",\"cat\":\"request\",\"id\":";
            out += std::to_string(e.request);
            out += ",\"bp\":\"e\"}";
            break;
        }
        }
    }
    out += "\n]}\n";
    return out;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<TraceEvent> &events, int n_devices,
                 int n_prefill_devices)
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << chromeTraceJson(events, n_devices, n_prefill_devices);
    return static_cast<bool>(f);
}

} // namespace specee::obs
