/**
 * @file
 * Serving-layer benchmark: the cloud-serving half of the evaluation
 * (SpecEE §7.2) on the live continuous-batching server, as a table of
 * sweeps run by one loop.
 *
 * A sweep is {name, console title, its points, the fields it records,
 * its bars}. A point is a label, an edit of one shared base (HF+SpecEE
 * on an A100, 2 workers, max_batch 8) and a request stream. The loop
 * drains every point once and records it as an ordered list of typed
 * fields. That record is the only source of the sweep's console
 * table, its BENCH_serving.json point and every bar: bars, and the
 * calibrations later sweeps take from earlier ones, look records up
 * by (sweep, label). Calibration sweeps are recorded and printed but
 * left out of the JSON.
 *
 * The sweeps, in run order: offered load (continuous batching vs one
 * request at a time), KV pressure, chunked prefill, preempt mode
 * (swap vs recompute), prefix reuse, sharded fleets (TP/PP with stage
 * backfill), preempt mix, disaggregated prefill, goodput under SLO
 * and the adaptive controller. Each builder below says what its sweep
 * shows.
 *
 * BENCH_serving.json holds every recorded point and every bar
 * (`"bars": [{"name", "met"}]`); any unmet bar fails the exit code.
 * The disaggregated SLO point writes its fleet event trace to
 * BENCH_serving_trace.json (Perfetto-loadable).
 *
 *   $ ./bench_serving [model]     (default llama2-7b)
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hh"
#include "hw/memory_tracker.hh"
#include "model/stage_graph.hh"
#include "serve/server.hh"
#include "util/logging.hh"

using namespace specee;
using namespace specee::benchutil;
using engines::EngineConfig;
using serve::PreemptMode;
using serve::Priority;

namespace {

/** One recorded field: a string, an integer or a %.*g number. */
struct Field
{
    std::string key;
    std::string text; ///< string fields
    double value = 0.0;
    int digits = -1; ///< -1: string; 0: integer; else %.*g digits
};

Field
str(std::string key, std::string v)
{
    return {std::move(key), std::move(v), 0.0, -1};
}

Field
num(std::string key, double v, int digits = 5)
{
    return {std::move(key), "", v, digits};
}

Field
integer(std::string key, double v)
{
    return {std::move(key), "", v, 0};
}

/** A field as the JSON and the console print it (strings unquoted). */
std::string
format(const Field &f)
{
    if (f.digits < 0)
        return f.text;
    if (f.digits == 0)
        return std::to_string(static_cast<long>(f.value));
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*g", f.digits, f.value);
    return buf;
}

/** One recorded point. */
struct Record
{
    std::string sweep, label;
    bool json = true;
    std::vector<Field> fields;

    void add(std::initializer_list<Field> fs)
    {
        fields.insert(fields.end(), fs);
    }

    /** The named number; a missing one is a bug in this bench. */
    double operator[](const std::string &key) const
    {
        for (const auto &f : fields)
            if (f.key == key && f.digits >= 0)
                return f.value;
        specee_fatal("%s/%s records no number %s", sweep.c_str(),
                     label.c_str(), key.c_str());
    }
};

/** Every recorded point, in run order. */
struct Book
{
    std::vector<Record> records;

    const Record &at(const std::string &sweep,
                     const std::string &label) const
    {
        for (const auto &r : records)
            if (r.sweep == sweep && r.label == label)
                return r;
        specee_fatal("no recorded point %s/%s", sweep.c_str(),
                     label.c_str());
    }

    std::vector<const Record *> of(const std::string &sweep) const
    {
        std::vector<const Record *> out;
        for (const auto &r : records)
            if (r.sweep == sweep)
                out.push_back(&r);
        return out;
    }

    bool all(const std::string &sweep,
             const std::function<bool(const Record &)> &pred) const
    {
        const auto rs = of(sweep);
        return std::all_of(rs.begin(), rs.end(),
                           [&](const Record *r) { return pred(*r); });
    }
};

/** What one drained point hands its sweep's reducer. */
struct Drain
{
    const serve::ServeReport &rep;
    /** Gaps between consecutive tokens of each interactive request. */
    const std::vector<double> &interactive_gaps;
};

using Edit = std::function<void(serve::ServerOptions &)>;

struct Point
{
    std::string label;
    std::vector<Field> fields; ///< what the point varies, recorded first
    Edit edit;                 ///< empty: record `fields` alone, no drain
    std::vector<serve::Request> stream;
};

/** A pass/fail bar; an empty `met` counts the sweep's records. */
struct Bar
{
    std::string name;
    std::function<bool(const Book &)> met;
};

struct Sweep
{
    Sweep(std::string n, std::string t)
        : name(std::move(n)), title(std::move(t))
    {
    }

    std::string name;
    std::string title;
    std::vector<Point> points;
    /** Appends the measured fields after the point's own. */
    std::function<void(Record &, const Drain &)> record;
    std::vector<Bar> bars;
    bool json = true;       ///< false: a calibration the JSON omits
    bool bars_last = false; ///< judged after every other sweep's bars

    void point(std::string label, std::vector<Field> fields, Edit edit,
               std::vector<serve::Request> stream)
    {
        points.push_back({std::move(label), std::move(fields),
                          std::move(edit), std::move(stream)});
    }

    void bar(std::string bar_name, std::function<bool(const Book &)> met)
    {
        bars.push_back({std::move(bar_name), std::move(met)});
    }

    /** `<name>_points`: every declared point was recorded. */
    void pointsBar() { bars.push_back({name + "_points", {}}); }
};

/** What a sweep builder reads: earlier records and the model. */
struct Ctx
{
    const Book &book;
    int n_layers;

    /**
     * P: one long prompt's pressure-free service time (admission to
     * finish), from the calibration sweep. Later streams set their
     * arrival cadence in units of P, so the pressure they apply does
     * not depend on the model.
     */
    double serviceTime() const
    {
        return book.at("calibration", "long_prompt")["latency_s"];
    }

    /**
     * KV budget scaled per layer so every model sees the same
     * pressure (100 blocks at the tiny model's 8 layers): about two
     * long working sets plus the scheduler's growth reserve.
     */
    int pressedBudget() const { return 25 * n_layers / 2; }
};

/** The base every point edits. */
serve::ServerOptions
baseOptions()
{
    serve::ServerOptions o;
    o.engine = EngineConfig::huggingFace().withSpecEE();
    o.spec = hw::HardwareSpec::a100();
    o.workers = 2;
    o.sched.max_batch = 8;
    return o;
}

/** Drains every point of `s`, records it, and prints the sweep. */
void
runSweep(const Sweep &s, const engines::Pipeline &pipe, Book &book)
{
    for (const auto &p : s.points) {
        Record r{s.name, p.label, s.json, p.fields};
        if (p.edit) {
            auto opts = baseOptions();
            p.edit(opts);
            std::set<uint64_t> interactive;
            for (const auto &q : p.stream)
                if (q.priority == Priority::Interactive)
                    interactive.insert(q.id);
            std::vector<double> gaps;
            std::map<uint64_t, double> last_emit;
            opts.on_token = [&](const serve::TokenEvent &ev) {
                if (interactive.count(ev.request_id) != 0) {
                    const auto it = last_emit.find(ev.request_id);
                    if (it != last_emit.end())
                        gaps.push_back(ev.emit_s - it->second);
                    last_emit[ev.request_id] = ev.emit_s;
                }
                return true;
            };
            serve::Server server(pipe, opts);
            server.submit(p.stream);
            const auto rep = server.drain();
            s.record(r, Drain{rep, gaps});
        }
        book.records.push_back(std::move(r));
    }

    // One column per point, one row per field (first-seen order; "-"
    // where a point does not record the field).
    const auto rs = book.of(s.name);
    std::vector<std::string> header{"field"}, keys;
    for (const auto *r : rs) {
        header.push_back(r->label);
        for (const auto &f : r->fields)
            if (std::find(keys.begin(), keys.end(), f.key) == keys.end())
                keys.push_back(f.key);
    }
    metrics::Table t(s.title);
    t.header(header);
    for (const auto &k : keys) {
        std::vector<std::string> row{k};
        for (const auto *r : rs) {
            const auto f =
                std::find_if(r->fields.begin(), r->fields.end(),
                             [&](const Field &x) { return x.key == k; });
            row.push_back(f == r->fields.end() ? "-" : format(*f));
        }
        t.row(row);
    }
    t.print();
}

void
writeJson(const std::string &path, const std::string &model,
          const std::string &platform,
          const std::vector<std::pair<std::string, bool>> &bars,
          const Book &book)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"model\": \"%s\",\n  \"platform\": \"%s\",\n",
                 model.c_str(), platform.c_str());
    std::fprintf(f, "  \"bars\": [\n");
    for (size_t i = 0; i < bars.size(); ++i) {
        std::fprintf(f, "    {\"name\": \"%s\", \"met\": %s}%s\n",
                     bars[i].first.c_str(),
                     bars[i].second ? "true" : "false",
                     i + 1 < bars.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"points\": [\n");
    std::vector<const Record *> points;
    for (const auto &r : book.records)
        if (r.json)
            points.push_back(&r);
    for (size_t i = 0; i < points.size(); ++i) {
        std::fprintf(f, "    {\"sweep\": \"%s\"", points[i]->sweep.c_str());
        for (const auto &fl : points[i]->fields) {
            const char *quote = fl.digits < 0 ? "\"" : "";
            std::fprintf(f, ", \"%s\": %s%s%s", fl.key.c_str(), quote,
                         format(fl).c_str(), quote);
        }
        std::fprintf(f, "}%s\n", i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "[bench] wrote %s (%zu points)\n", path.c_str(),
                 points.size());
}

// --- reductions, streams and edits shared by several sweeps ---------

/** Fleet latency fields shared by every sweep's JSON point. */
void
latencyFields(Record &r, const serve::FleetStats &f)
{
    r.add({num("tok_s", f.tokens_per_s), num("p50_ttft_s", f.p50_ttft_s),
           num("p99_ttft_s", f.p99_ttft_s), num("p50_itl_s", f.p50_itl_s),
           num("p99_itl_s", f.p99_itl_s),
           num("p99_latency_s", f.p99_latency_s)});
}

/** SLO accounting is self-consistent: judged, bounded, <= raw tok/s. */
bool
sloConsistent(const Record &r)
{
    return r["slo_evaluated"] > 0 && r["slo_attained"] >= 0 &&
           r["slo_attained"] <= r["slo_evaluated"] &&
           r["goodput_under_slo"] <= r["tok_s"] + 1e-9;
}

/** The SLO fields of the SLO and controller sweeps. */
void
sloFields(Record &r, const serve::FleetStats &f)
{
    r.add({integer("slo_evaluated", f.slo_evaluated),
           integer("slo_attained", f.slo_attained),
           num("goodput_under_slo", f.goodput_under_slo)});
}

/** p50 TTFT over one tier's served requests. */
double
p50Ttft(const serve::ServeReport &rep, Priority tier)
{
    std::vector<double> v;
    for (const auto &o : rep.outcomes)
        if (o.request.priority == tier && !o.dropped && !o.cancelled)
            v.push_back(o.ttft_s);
    return metrics::percentile(v, 50.0);
}

/** p99 over interactive requests of each one's worst token gap. */
double
interactiveItlTail(const serve::ServeReport &rep)
{
    std::vector<double> v;
    for (const auto &o : rep.outcomes)
        if (o.request.priority == Priority::Interactive && !o.dropped &&
            !o.cancelled)
            v.push_back(o.max_itl_s);
    return metrics::percentile(v, 99.0);
}

/** Batch-tier requests with ids from `id_base` (100: after interactive). */
serve::StreamOptions
batchTier(serve::StreamOptions so, uint64_t id_base = 100)
{
    so.priority = Priority::Batch;
    so.id_base = id_base;
    return so;
}

/**
 * Eight 4096-token batch prompts, one every 0.45 x P: offered faster
 * than a budget-constrained fleet serves them, so each arrival
 * squeezes the youngest resident back out mid-prefill.
 */
std::vector<serve::Request>
pressedStream(double P)
{
    auto s = serve::synthesizeStream(batchTier(
        {.n_requests = 8, .gen_len = 40, .prompt_len = 4096,
         .seed = 0x10f6}));
    for (size_t i = 0; i < s.size(); ++i)
        s[i].arrival_s = 0.45 * P * static_cast<double>(i);
    return s;
}

/** Chunked (256) prefill under a KV budget, preempting by `mode`. */
Edit
pressedEdit(int budget, PreemptMode mode, double watermark = 0.0)
{
    return [=](serve::ServerOptions &o) {
        o.sched.prefill.chunk_tokens = 256;
        o.sched.kv_budget_blocks = budget;
        o.sched.preempt_mode = mode;
        o.sched.kv_watermark = watermark;
    };
}

/**
 * Eight interactive requests decoding while 4096-token batch prompts
 * arrive just under one device's ingest rate (every 0.8 x P).
 */
std::vector<serve::Request>
disaggStream(double P)
{
    auto s = serve::mergeStreams(
        serve::synthesizeStream(
            {.n_requests = 8, .gen_len = 160, .seed = 0xd14a}),
        serve::synthesizeStream(batchTier(
            {.n_requests = 4, .gen_len = 8, .prompt_len = 4096,
             .seed = 0xe55e})));
    for (auto &r : s)
        if (r.id >= 100)
            r.arrival_s = 0.8 * P * static_cast<double>(r.id - 100);
    return s;
}

/** Two devices and chunked (256) prefill; one prefill device splits. */
Edit
disaggEdit(int prefill_devices, bool overlap)
{
    return [=](serve::ServerOptions &o) {
        o.sched.prefill.chunk_tokens = 256;
        o.sched.topology.devices = 2;
        o.sched.topology.prefill_devices = prefill_devices;
        o.sched.topology.overlap_transfers = overlap;
    };
}

struct DisaggPoint
{
    const char *label;
    int prefill_devices;
    bool overlap;
};

constexpr DisaggPoint kDisaggPoints[] = {
    {"unified", 0, false},
    {"disagg_serial", 1, false},
    {"disagg", 1, true},
};

struct ModePoint
{
    const char *label;
    PreemptMode mode;
};

constexpr ModePoint kPureModes[] = {
    {"recompute", PreemptMode::Recompute},
    {"swap", PreemptMode::Swap},
    {"auto", PreemptMode::Auto},
};

/**
 * A steady interactive stream (one request every 0.15 x P) with
 * 4096-token batch prompts arriving every 0.45 x P from 0.8 x P on.
 */
std::vector<serve::Request>
controllerStream(double P)
{
    auto s = serve::mergeStreams(
        serve::synthesizeStream(
            {.n_requests = 16, .gen_len = 24, .seed = 0xc0a1}),
        serve::synthesizeStream(batchTier(
            {.n_requests = 6, .gen_len = 8, .prompt_len = 4096,
             .seed = 0xc0a2})));
    for (auto &r : s) {
        r.arrival_s =
            r.id >= 100
                ? P * (0.8 + 0.45 * static_cast<double>(r.id - 100))
                : 0.15 * P * static_cast<double>(r.id);
    }
    return s;
}

constexpr double kLoadsRps[] = {2.0, 8.0, 32.0};

std::string
loadLabel(const char *engine, double rps)
{
    return std::string(engine) + " @" + metrics::Table::num(rps, 0);
}

/** Three engines at three offered loads, at `max_batch`. */
void
offeredPoints(Sweep &s, int max_batch)
{
    const std::pair<const char *, EngineConfig> engines[] = {
        {"HF dense", EngineConfig::huggingFace()},
        {"HF+SpecEE", EngineConfig::huggingFace().withSpecEE()},
        {"AdaInfer", EngineConfig::adaInfer()},
    };
    for (const auto &e : engines) {
        for (const double rps : kLoadsRps) {
            const auto seed = 0xca11 + static_cast<uint64_t>(rps * 10);
            s.point(loadLabel(e.first, rps),
                    {str("engine", e.first), num("rate_rps", rps, 4)},
                    [cfg = e.second, max_batch](serve::ServerOptions &o) {
                        o.engine = cfg;
                        o.sched.max_batch = max_batch;
                    },
                    serve::synthesizeStream({.n_requests = 10,
                                             .gen_len = 16,
                                             .rate_rps = rps,
                                             .seed = seed}));
        }
    }
}

// --- the sweeps, in run order -----------------------------------------

/** Calibration: one request at a time, offered_load's baseline. */
Sweep
sequential(const Ctx &)
{
    Sweep s{"sequential", "Sequential serving (max_batch 1): the "
                          "offered-load baseline"};
    s.json = false;
    offeredPoints(s, 1);
    s.record = [](Record &r, const Drain &d) {
        r.add({num("tok_s", d.rep.fleet.tokens_per_s)});
    };
    return s;
}

/**
 * Offered load: continuous batching (max_batch 8) against sequential
 * serving. Batching amortizes the weight stream over the decode
 * batch, and early exits shorten the shared read itself, so the two
 * multiply under load.
 */
Sweep
offeredLoad(const Ctx &c)
{
    Sweep s{"offered_load", "Offered-load sweep: 10 requests, "
                            "chat/sum/QA mix (seq_tok_s: max_batch 1)"};
    offeredPoints(s, 8);
    s.record = [&c](Record &r, const Drain &d) {
        const auto &seq = c.book.at("sequential", r.label);
        r.add({num("seq_tok_s", seq["tok_s"])});
        latencyFields(r, d.rep.fleet);
    };
    s.bars_last = true;
    s.bar("batched_specee_throughput", [](const Book &b) {
        double batched = 0.0, seq = 0.0;
        for (const double rps : kLoadsRps) {
            const auto &r =
                b.at("offered_load", loadLabel("HF+SpecEE", rps));
            batched += r["tok_s"];
            seq += r["seq_tok_s"];
        }
        return batched > seq;
    });
    return s;
}

/**
 * KV pressure: a 12-request burst under a fleet KV budget squeezed
 * until the scheduler preempts (evict, re-enqueue, recompute), so
 * queued requests see later first tokens as the budget tightens.
 */
Sweep
kvPressure(const Ctx &c)
{
    Sweep s{"kv_pressure", "KV-pressure sweep: HF+SpecEE, 12-request "
                           "burst (budget in paged-KV blocks)"};
    const int blocks_per_layer =
        (workload::kSimPromptLen + 16 + model::kKvBlockSize - 1) /
        model::kKvBlockSize;
    const int per_seq = c.n_layers * blocks_per_layer;
    const auto stream = serve::synthesizeStream(
        {.n_requests = 12, .gen_len = 16, .seed = 0x6e0});
    for (const int budget : {0, 4 * per_seq, 5 * per_seq / 2}) {
        s.point(budget == 0 ? "unbounded" : std::to_string(budget),
                {integer("budget_blocks", budget)},
                [budget](serve::ServerOptions &o) {
                    o.sched.kv_budget_blocks = budget;
                },
                stream);
    }
    s.record = [](Record &r, const Drain &d) {
        r.add({integer("preemptions", d.rep.fleet.preemptions),
               integer("peak_kv_blocks", d.rep.fleet.peak_kv_blocks)});
        latencyFields(r, d.rep.fleet);
    };
    return s;
}

/**
 * Chunked prefill: six 4096-token batch-tier prompts and six short
 * interactive requests share the fleet, and prompt ingestion is
 * priced and split into token-budgeted chunks interleaved with
 * decode. Chunk 0 is the free (atomic) prefill; "monolithic" prices
 * each prompt as one chunk (Sarathi's no-chunking baseline). Small
 * chunks land interactive first tokens sooner, at the cost of
 * re-reading the weight stream per chunk.
 */
Sweep
chunkedPrefill(const Ctx &)
{
    Sweep s{"chunked_prefill", "Chunked-prefill sweep: HF+SpecEE, "
                               "6x4096-token batch prompts + 6 "
                               "interactive"};
    const auto stream = serve::mergeStreams(
        serve::synthesizeStream({.n_requests = 6, .gen_len = 16,
                                 .rate_rps = 12.0, .seed = 0x1a7e}),
        serve::synthesizeStream(
            batchTier({.n_requests = 6, .gen_len = 16, .rate_rps = 12.0,
                       .prompt_len = 4096, .seed = 0xb16})));
    const std::tuple<const char *, int, int> chunks[] = {
        {"free (legacy)", 0, 0}, {"monolithic", 1 << 20, 0},
        {"1024", 1024, 2048},    {"256", 256, 512},
        {"64", 64, 128},
    };
    for (const auto &[label, chunk, budget] : chunks) {
        s.point(label,
                {str("mode", label), integer("chunk_tokens", chunk),
                 integer("iter_budget", budget)},
                [chunk = chunk, budget = budget](serve::ServerOptions &o) {
                    o.sched.prefill.chunk_tokens = chunk;
                    o.sched.prefill.max_tokens_per_iteration = budget;
                },
                stream);
    }
    s.record = [](Record &r, const Drain &d) {
        const auto &f = d.rep.fleet;
        r.add({num("interactive_p50_ttft_s",
                   p50Ttft(d.rep, Priority::Interactive)),
               num("batch_p50_ttft_s", p50Ttft(d.rep, Priority::Batch)),
               integer("prefill_chunks", f.prefill_chunks),
               integer("prefill_tokens", f.prefill_tokens),
               num("mean_prefill_s", f.mean_prefill_s)});
        latencyFields(r, f);
    };
    s.bars_last = true;
    s.bar("chunked_interactive_ttft", [](const Book &b) {
        const auto ttft = [&](const char *label) {
            return b.at("chunked_prefill", label)["interactive_p50_ttft_s"];
        };
        return ttft("64") * 2.0 <= ttft("monolithic");
    });
    return s;
}

/** Calibration: P, one long prompt's pressure-free service time. */
Sweep
calibration(const Ctx &)
{
    Sweep s{"calibration", "Calibration: one 4096-token prompt alone, "
                           "chunked prefill 256"};
    s.json = false;
    s.point("long_prompt", {},
            [](serve::ServerOptions &o) {
                o.sched.prefill.chunk_tokens = 256;
            },
            serve::synthesizeStream({.n_requests = 1, .gen_len = 40,
                                     .prompt_len = 4096, .seed = 0x10f6}));
    s.record = [](Record &r, const Drain &d) {
        r.add({num("latency_s", d.rep.outcomes[0].latency_s)});
    };
    return s;
}

/**
 * Preempt mode on the pressed long-prompt stream. Recompute-only
 * eviction throws a victim's priced chunks away every cycle, and the
 * wasted re-ingests compound into queueing delay; swap moves the KV
 * over the host link and resumes; auto picks per victim from the
 * modeled costs. The last point adds the prefill-aware admission
 * watermark, which bounds the thrash at admission instead.
 */
Sweep
preemptMode(const Ctx &c)
{
    const int budget = c.pressedBudget();
    Sweep s{"preempt_mode",
            "Preempt-mode sweep: HF+SpecEE, 8x4096-token prompts every "
            "0.45x service time, KV budget " +
                std::to_string(budget) + " blocks"};
    const auto stream = pressedStream(c.serviceTime());
    const auto add = [&](const char *label, PreemptMode mode, double wm) {
        s.point(label,
                {str("mode", label), integer("budget_blocks", budget),
                 num("watermark", wm, 3)},
                pressedEdit(budget, mode, wm), stream);
    };
    for (const auto &m : kPureModes)
        add(m.label, m.mode, 0.0);
    add("auto+wm0.85", PreemptMode::Auto, 0.85);
    s.record = [](Record &r, const Drain &d) {
        const auto &f = d.rep.fleet;
        r.add({integer("preemptions", f.preemptions),
               integer("swaps_out", f.swaps_out),
               integer("swaps_in", f.swaps_in),
               integer("watermark_rejections", f.watermark_rejections),
               integer("prefill_tokens", f.prefill_tokens),
               integer("peak_host_kv_blocks", f.peak_host_kv_blocks),
               num("peak_host_mem_gb", f.peak_host_mem_gb, 4)});
        latencyFields(r, f);
    };
    s.bar("preempt_swap_p99_ttft", [](const Book &b) {
        const auto &rec = b.at("preempt_mode", "recompute");
        const auto wins = [&](const Record &r) {
            return r["p99_ttft_s"] * 1.5 <= rec["p99_ttft_s"] &&
                   r["tok_s"] >= rec["tok_s"];
        };
        return wins(b.at("preempt_mode", "swap")) &&
               wins(b.at("preempt_mode", "auto"));
    });
    return s;
}

/**
 * Prefix reuse: 12 conversations of 4096-token prompts, 7/8 of which
 * is the stream's shared template. The first request seeds the cache
 * alone; the rest arrive every 0.45 x P from P on. Cache hits adopt
 * the template's KV and chunk-ingest only their 512-token suffix. The
 * cache-off baseline runs where the contrast is sharpest, at 0.9.
 */
Sweep
prefixReuse(const Ctx &c)
{
    Sweep s{"prefix_reuse", "Prefix-reuse sweep: HF+SpecEE, "
                            "12x4096-token prompts, 3584-token shared "
                            "template, chunked prefill 256"};
    const double P = c.serviceTime();
    const auto add = [&](double reuse, bool cache) {
        auto stream = serve::synthesizeStream(
            {.n_requests = 12, .gen_len = 16, .prompt_len = 4096,
             .prefix_reuse = reuse, .template_prefix_len = 7 * 4096 / 8,
             .seed = 0x5ee3});
        for (size_t i = 1; i < stream.size(); ++i)
            stream[i].arrival_s =
                P * (1.0 + 0.45 * static_cast<double>(i - 1));
        const std::string onoff = cache ? "on" : "off";
        s.point(metrics::Table::num(reuse, 2) + " " + onoff,
                {num("reuse", reuse, 3), str("cache", onoff)},
                [cache](serve::ServerOptions &o) {
                    o.sched.prefill.chunk_tokens = 256;
                    o.sched.prefill.max_tokens_per_iteration = 512;
                    o.sched.prefix_cache.enabled = cache;
                },
                std::move(stream));
    };
    for (const double reuse : {0.0, 0.25, 0.5, 0.9})
        add(reuse, true);
    add(0.9, false);
    s.record = [](Record &r, const Drain &d) {
        const auto &f = d.rep.fleet;
        r.add({integer("prefix_hits", f.prefix_hits),
               integer("cached_tokens", f.cached_tokens),
               integer("cache_evictions", f.cache_evictions),
               integer("peak_cached_blocks", f.peak_cached_blocks),
               integer("prefill_tokens", f.prefill_tokens)});
        latencyFields(r, f);
    };
    s.pointsBar();
    s.bar("prefix_cache_hits", [](const Book &b) {
        const auto &on = b.at("prefix_reuse", "0.90 on");
        return on["prefix_hits"] > 0 && on["cached_tokens"] > 0 &&
               b.at("prefix_reuse", "0.90 off")["prefix_hits"] == 0;
    });
    s.bar("prefix_p50_ttft", [](const Book &b) {
        return b.at("prefix_reuse", "0.90 on")["p50_ttft_s"] * 3.0 <=
               b.at("prefix_reuse", "0.90 off")["p50_ttft_s"];
    });
    return s;
}

/**
 * The 70B-class deployment that motivates sharding, as deployment
 * arithmetic on the modeled config: the tightest device's GiB as one
 * stage and in a tp2 x pp2 fleet, against the A100's memory.
 */
std::vector<Field>
deviceFitFields()
{
    const auto big = model::ModelConfig::llama2_70b();
    const hw::MemoryTracker mem(big, tensor::WeightBackend::Fp32,
                                /*with_draft_model=*/true,
                                /*n_predictors=*/big.n_layers,
                                /*predictor_params=*/5200);
    const auto gib = [&](int tp, int pp) {
        return hw::MemoryTracker::toGiB(mem.maxDeviceBytes(
            model::StageGraph(big.n_layers, pp), tp, 8192, 4));
    };
    return {str("backfill", "n/a"), str("check", "70b_device_fit"),
            num("mono_device_gib", gib(1, 1)),
            num("tp2pp2_device_gib", gib(2, 2)),
            num("vram_gb", hw::HardwareSpec::a100().vram_gb)};
}

/**
 * Sharded fleets: the step is priced as a DAG of layer-range stages
 * (pipeline parallelism hands activations between stages over the
 * interconnect; tensor parallelism splits each stage's weight stream
 * and pays a per-layer all-reduce). Early exit at layer k releases
 * the stages past k, and backfill slots queued prefill chunks into
 * the stages the last iteration left idle. A burst under a one-token
 * prefill budget at max_batch 2 is the sharpest contention: without
 * backfill a queued prompt makes no progress until the decoder
 * finishes. At pp = 1 backfill is inert (one point). The last point
 * is the 70B fit, recorded without a drain.
 */
Sweep
sharded(const Ctx &)
{
    Sweep s{"sharded", "Sharded-fleet sweep: HF+SpecEE, 8x96-token "
                       "prompts, chunked prefill 32, iteration budget 1, "
                       "max_batch 2"};
    const auto stream = serve::synthesizeStream(
        {.n_requests = 8, .gen_len = 24, .prompt_len = 96, .seed = 0x5a7d});
    const auto add = [&](int tp, int pp, bool backfill) {
        const std::string onoff = backfill ? "on" : "off";
        const auto shape = std::to_string(tp) + "x" + std::to_string(pp);
        s.point(pp == 1 ? shape : shape + " " + onoff,
                {integer("tp", tp), integer("pp", pp),
                 str("backfill", onoff)},
                [=](serve::ServerOptions &o) {
                    o.engine = o.engine.withSharding(tp, pp);
                    o.sched.max_batch = 2;
                    o.sched.prefill.chunk_tokens = 32;
                    o.sched.prefill.max_tokens_per_iteration = 1;
                    o.sched.stage_backfill = backfill;
                },
                stream);
    };
    add(1, 1, true);
    add(2, 2, false);
    add(2, 2, true);
    add(1, 4, false);
    add(1, 4, true);
    s.point("70b_device_fit", deviceFitFields(), {}, {});
    s.record = [](Record &r, const Drain &d) {
        const auto &f = d.rep.fleet;
        r.add({integer("n_stages", f.n_stages),
               num("pipeline_utilization", f.pipeline_utilization),
               integer("peak_stage_occupancy", f.peak_stage_occupancy),
               integer("backfill_grants", f.backfill_grants),
               integer("backfill_tokens", f.backfill_tokens)});
        latencyFields(r, f);
    };
    s.bar("70b_device_fit", [](const Book &b) {
        const auto &fit = b.at("sharded", "70b_device_fit");
        return fit["mono_device_gib"] > fit["vram_gb"] &&
               fit["tp2pp2_device_gib"] < fit["vram_gb"];
    });
    s.pointsBar();
    s.bar("sharded_backfill", [](const Book &b) {
        const auto &on = b.at("sharded", "1x4 on");
        const auto &off = b.at("sharded", "1x4 off");
        return on["pipeline_utilization"] > off["pipeline_utilization"] &&
               on["backfill_grants"] > 0 && on["n_stages"] == 4 &&
               off["backfill_grants"] == 0;
    });
    return s;
}

/**
 * Preempt mix: on the all-long pressed stream every victim carries a
 * 4096-token prefill, so auto always swaps. Mixing 1024-token prompts
 * into the batch tier, over a host link throttled to 3 GB/s (an
 * oversubscribed PCIe path), hands auto victims on both sides of the
 * swap-vs-recompute break-even: a freshly admitted short victim
 * recomputes, a long one deep into its run swaps.
 */
Sweep
preemptMix(const Ctx &c)
{
    const int budget = c.pressedBudget();
    Sweep s{"preempt_mix", "Preempt-mix sweep: HF+SpecEE, 4x1024 + "
                           "4x4096-token batch prompts, host link 3 "
                           "GB/s, KV budget " +
                               std::to_string(budget) + " blocks"};
    const auto stream = serve::mergeStreams(
        serve::synthesizeStream(batchTier({.n_requests = 4, .gen_len = 24,
                                           .prompt_len = 1024,
                                           .seed = 0x3a1f},
                                          0)),
        serve::synthesizeStream(batchTier({.n_requests = 4, .gen_len = 24,
                                           .prompt_len = 4096,
                                           .seed = 0x9b2c})));
    for (const auto &m : kPureModes) {
        s.point(m.label,
                {str("mode", m.label), integer("budget_blocks", budget),
                 num("host_bw_gbs", 3.0, 3)},
                [edit = pressedEdit(budget, m.mode)](
                    serve::ServerOptions &o) {
                    edit(o);
                    o.spec.swap_bw_gbs = 3.0;
                },
                stream);
    }
    s.record = [](Record &r, const Drain &d) {
        const auto &f = d.rep.fleet;
        r.add({integer("preemptions", f.preemptions),
               integer("swaps_out", f.swaps_out),
               integer("recomputes", f.preemptions - f.swaps_out),
               integer("prefill_tokens", f.prefill_tokens),
               num("makespan_s", f.makespan_s, 6)});
        latencyFields(r, f);
    };
    s.pointsBar();
    s.bar("preempt_mix_pure_modes", [](const Book &b) {
        const auto &rec = b.at("preempt_mix", "recompute");
        const auto &swap = b.at("preempt_mix", "swap");
        return rec["swaps_out"] == 0 && rec["preemptions"] > 0 &&
               swap["swaps_out"] == swap["preemptions"] &&
               swap["swaps_out"] > 0;
    });
    s.bar("preempt_mix_auto_diverges", [](const Book &b) {
        const auto &rec = b.at("preempt_mix", "recompute");
        const auto &swap = b.at("preempt_mix", "swap");
        const auto &aut = b.at("preempt_mix", "auto");
        const double dearer =
            std::max(rec["makespan_s"], swap["makespan_s"]);
        return aut["swaps_out"] > 0 && aut["recomputes"] > 0 &&
               rec["preemptions"] > 0 && swap["swaps_out"] > 0 &&
               aut["makespan_s"] <= dearer * (1.0 + 1e-9);
    });
    return s;
}

/**
 * Disaggregation at matched hardware (two devices, one interconnect).
 * Unified: every device decodes and chunk-ingests, so prompt chunks
 * share iteration boundaries with the decode batch and inflate ITL.
 * Disaggregated: one device only ingests prompts and streams finished
 * KV to the decode device over the priced peer link, overlapped with
 * decode on per-device DMA channels (disagg_serial does not overlap).
 */
Sweep
disagg(const Ctx &c)
{
    Sweep s{"disagg", "Disaggregated-fleet sweep: HF+SpecEE, 8 "
                      "interactive + 4x4096-token batch prompts, 2 "
                      "devices, chunked prefill 256"};
    const auto stream = disaggStream(c.serviceTime());
    for (const auto &dp : kDisaggPoints) {
        s.point(dp.label,
                {str("fleet", dp.label), integer("devices", 2),
                 integer("prefill_devices", dp.prefill_devices),
                 str("overlap", dp.overlap ? "on" : "off")},
                disaggEdit(dp.prefill_devices, dp.overlap), stream);
    }
    s.record = [](Record &r, const Drain &d) {
        const auto &f = d.rep.fleet;
        r.add({integer("handoffs", f.handoffs),
               num("handoff_gb", f.handoff_gb),
               integer("transfers_overlapped", f.transfers_overlapped),
               num("transfer_bytes_gb",
                   f.transfer_bytes_sent / (1024.0 * 1024.0 * 1024.0)),
               num("interactive_p99_itl_s",
                   metrics::percentile(d.interactive_gaps, 99.0)),
               num("prefill_busy_s", f.prefill_busy_s),
               num("transfer_busy_s", f.transfer_busy_s)});
        latencyFields(r, f);
    };
    s.pointsBar();
    s.bar("disagg_handoffs", [](const Book &b) {
        const auto &uni = b.at("disagg", "unified");
        const auto &dis = b.at("disagg", "disagg");
        return uni["prefill_devices"] == 0 && uni["handoffs"] == 0 &&
               uni["transfers_overlapped"] == 0 &&
               dis["prefill_devices"] == 1 && dis["handoffs"] > 0 &&
               dis["transfers_overlapped"] > 0;
    });
    s.bar("disagg_interactive_itl", [](const Book &b) {
        const auto &uni = b.at("disagg", "unified");
        const auto &dis = b.at("disagg", "disagg");
        return dis["interactive_p99_itl_s"] * 1.3 <=
                   uni["interactive_p99_itl_s"] &&
               dis["tok_s"] >= uni["tok_s"];
    });
    return s;
}

/**
 * Goodput under SLO: the preempt and disaggregation scenarios again,
 * with per-tier objectives, so the scheduler judges every retired
 * request and accounts goodput under SLO instead of raw tok/s. The
 * batch TTFT bound sits just above the swap/auto tail (work-preserving
 * preemption keeps the promise; recompute's thrashed tail breaks
 * it). The interactive ITL bound splits the disaggregated and unified
 * tails geometrically. Attainment must order the scenarios as their
 * latencies did. The disaggregated point traces.
 */
Sweep
slo(const Ctx &c)
{
    Sweep s{"slo", "SLO-attainment sweep: goodput under tier objectives "
                   "(calibrated from the sweeps above)"};
    const double P = c.serviceTime();
    const auto &b = c.book;
    const double batch_ttft_slo =
        1.05 * std::max(b.at("preempt_mode", "swap")["p99_ttft_s"],
                        b.at("preempt_mode", "auto")["p99_ttft_s"]);
    const auto pressed = pressedStream(P);
    for (const auto &m : kPureModes) {
        const std::string label = std::string("preempt_") + m.label;
        s.point(label,
                {str("scenario", label),
                 num("batch_ttft_slo_s", batch_ttft_slo)},
                [edit = pressedEdit(c.pressedBudget(), m.mode),
                 batch_ttft_slo, P](serve::ServerOptions &o) {
                    edit(o);
                    o.sched.slo.batch.ttft_s = batch_ttft_slo;
                    o.sched.timeline.window_s = 0.5 * P;
                },
                pressed);
    }
    const double itl_slo =
        std::sqrt(b.at("disagg", "disagg")["interactive_p99_itl_s"] *
                  b.at("disagg", "unified")["interactive_p99_itl_s"]);
    for (const auto &dp : kDisaggPoints) {
        if (dp.prefill_devices == 1 && !dp.overlap)
            continue; // unified vs overlapped disagg, as in the bar
        const std::string label = std::string("disagg_") + dp.label;
        s.point(label,
                {str("scenario", label),
                 num("interactive_itl_slo_s", itl_slo)},
                [edit = disaggEdit(dp.prefill_devices, dp.overlap),
                 itl_slo, P, traced = dp.overlap](serve::ServerOptions &o) {
                    edit(o);
                    o.sched.slo.interactive.itl_s = itl_slo;
                    o.sched.timeline.window_s = 0.5 * P;
                    // Prefill-device chunks, DMA handoffs and decode
                    // steps land on separate Perfetto tracks.
                    if (traced)
                        o.trace_path = "BENCH_serving_trace.json";
                },
                disaggStream(P));
    }
    s.record = [](Record &r, const Drain &d) {
        const auto &f = d.rep.fleet;
        sloFields(r, f);
        if (r.label.starts_with("disagg_"))
            r.add({integer("trace_events", f.trace.size())});
        r.add({integer("timeline_windows", f.timeline.size())});
        latencyFields(r, f);
    };
    s.pointsBar();
    s.bar("slo_accounting", [](const Book &bk) {
        return bk.all("slo", [](const Record &r) {
            return sloConsistent(r) && r["timeline_windows"] > 0;
        });
    });
    s.bar("slo_disagg_trace", [](const Book &bk) {
        return bk.at("slo", "disagg_disagg")["trace_events"] > 0;
    });
    s.bar("slo_ordering", [](const Book &bk) {
        const auto gp = [&](const char *label) {
            return bk.at("slo", label)["goodput_under_slo"];
        };
        return gp("preempt_swap") >= gp("preempt_recompute") &&
               gp("preempt_auto") >= gp("preempt_recompute") &&
               gp("disagg_disagg") >= gp("disagg_unified");
    });
    return s;
}

/** Calibration: each static chunk's interactive ITL tail, no promise. */
Sweep
controllerProbe(const Ctx &c)
{
    Sweep s{"controller_probe", "Calibration: interactive ITL tails of "
                                "the controller stream per static chunk"};
    s.json = false;
    const auto stream = controllerStream(c.serviceTime());
    for (const int chunk : {64, 1024}) {
        s.point(std::to_string(chunk), {integer("chunk_tokens", chunk)},
                [chunk](serve::ServerOptions &o) {
                    o.sched.prefill.chunk_tokens = chunk;
                },
                stream);
    }
    s.record = [](Record &r, const Drain &d) {
        r.add({num("interactive_itl_tail_s", interactiveItlTail(d.rep))});
    };
    return s;
}

/**
 * Controller: a steady interactive stream under an ITL promise; from
 * 0.8 x P on, 4096-token batch prompts keep arriving, and every big
 * chunk laced into a decode boundary breaks the promise. A static big
 * chunk is tuned for the first phase only. The adaptive controller
 * starts the same mis-tuned way, reads the windowed SLO attainment at
 * each decision epoch (Thompson sampling over chunks 64 and 1024) and
 * re-tunes online, so it must at least match the worse static choice
 * on goodput under SLO. The promise splits the probes' tails
 * geometrically: attainable under small chunks, broken under big ones.
 */
Sweep
controller(const Ctx &c)
{
    Sweep s{"controller", "Controller sweep: shifting interactive -> "
                          "batch mix under tier promises, chunk 64 vs "
                          "1024 vs adaptive"};
    const double P = c.serviceTime();
    const double itl_slo = std::sqrt(
        c.book.at("controller_probe", "64")["interactive_itl_tail_s"] *
        c.book.at("controller_probe", "1024")["interactive_itl_tail_s"]);
    const auto stream = controllerStream(P);
    const std::tuple<const char *, int, bool> configs[] = {
        {"static_small", 64, false},
        {"static_big", 1024, false},
        {"adaptive", 1024, true},
    };
    for (const auto &[label, chunk, adaptive] : configs) {
        s.point(label,
                {str("config", label), integer("chunk_tokens", chunk),
                 num("interactive_itl_slo_s", itl_slo)},
                [chunk = chunk, adaptive = adaptive, itl_slo,
                 P](serve::ServerOptions &o) {
                    o.sched.prefill.chunk_tokens = chunk;
                    o.sched.slo.interactive.itl_s = itl_slo;
                    o.sched.timeline.window_s = 0.25 * P;
                    if (adaptive) {
                        auto &ctl = o.sched.controller;
                        ctl.enabled = true;
                        ctl.seed = 11;
                        // An epoch must span several iterations: one
                        // narrower than a big-chunk iteration closes
                        // idle (no evidence) and the posterior starves.
                        ctl.epoch_s = 0.25 * P;
                        ctl.chunk_arms = {64, 1024};
                    }
                },
                stream);
    }
    s.record = [](Record &r, const Drain &d) {
        const auto &f = d.rep.fleet;
        sloFields(r, f);
        r.add({integer("epochs", f.controller.epochs),
               integer("knob_changes", f.controller.knob_changes)});
        latencyFields(r, f);
    };
    s.pointsBar();
    s.bar("controller_epochs", [](const Book &b) {
        return b.all("controller", [](const Record &r) {
            return r.label == "adaptive"
                       ? r["epochs"] > 0 && r["knob_changes"] >= 0
                       : r["epochs"] == 0 && r["knob_changes"] == 0;
        });
    });
    s.bar("controller_slo_accounting", [](const Book &b) {
        return b.all("controller", sloConsistent);
    });
    s.bar("controller_goodput", [](const Book &b) {
        const auto gp = [&](const char *label) {
            return b.at("controller", label)["goodput_under_slo"];
        };
        return gp("adaptive") >=
               std::min(gp("static_small"), gp("static_big")) * 0.999;
    });
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string model = argc > 1 ? argv[1] : "llama2-7b";
    const auto &pipe = pipeline(model);
    Book book;
    const Ctx ctx{book, pipe.modelConfig().n_layers};

    // Each builder may read the records of the sweeps before it.
    using Builder = Sweep (*)(const Ctx &);
    const Builder builders[] = {
        sequential,  offeredLoad, kvPressure,  chunkedPrefill,
        calibration, preemptMode, prefixReuse, sharded,
        preemptMix,  disagg,      slo,         controllerProbe,
        controller,
    };
    std::vector<Sweep> sweeps;
    for (const auto build : builders) {
        sweeps.push_back(build(ctx));
        runSweep(sweeps.back(), pipe, book);
    }

    // The first sweeps' bars joined the bar list after the later
    // sweeps' did; judging them last keeps the list in that order.
    std::printf("\n=== Bars ===\n");
    std::vector<std::pair<std::string, bool>> bars;
    for (const bool last : {false, true}) {
        for (const auto &s : sweeps) {
            if (s.bars_last != last)
                continue;
            for (const auto &b : s.bars) {
                const bool met = b.met ? b.met(book)
                                       : book.of(s.name).size() ==
                                             s.points.size();
                std::printf("%-28s %s\n", b.name.c_str(),
                            met ? "MET" : "MISSED");
                bars.emplace_back(b.name, met);
            }
        }
    }
    writeJson("BENCH_serving.json", model, hw::HardwareSpec::a100().name,
              bars, book);
    return std::all_of(bars.begin(), bars.end(),
                       [](const auto &b) { return b.second; })
               ? 0
               : 1;
}
