/**
 * @file
 * The repository benchmark: one workload, one seed, two clocks.
 *
 * Every invocation serves one frozen request stream through the
 * public serving API (engines::Pipeline, serve::Server) and reports
 * its metrics on two clocks: the MODELED clock (hw::CostModel seconds
 * of the A100 the paper reports) and the WALL clock of the host the
 * simulator runs on. Each metric in the result file names its clock.
 *
 * Measured run (default): set up three times (Pipeline + Server
 * construction, median reported), then drain the same stream with two
 * workers and tracing off until --seconds have passed, at least once.
 * Modeled metrics must be bit-identical across the drains (checked);
 * wall metrics are the median.
 *
 * Traced run (--traced): drain once at one worker with the fleet
 * event trace on, once at two workers and once at one worker
 * untraced, then replay every request through Engine::makeSession,
 * timing each engine call. Reports the per-layer metrics, writes the
 * replay's wall spans and the fleet trace as Chrome trace-event JSON
 * next to the result, and checks that neither tracing nor the worker
 * count moves a modeled metric.
 *
 * Every run checks its outputs (streamed tokens against outcomes,
 * FleetStats and an engine replay; backlog growth; that each
 * workload exercises the layer it exists for) and exits 1 on any
 * failure.
 *
 *   specee_bench --workload chat --seed 1 --out r.json [--traced]
 *                [--seconds 12] [--smoke]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engines/decode_session.hh"
#include "engines/pipeline.hh"
#include "metrics/stats.hh"
#include "model/paged_kv.hh"
#include "obs/trace.hh"
#include "serve/server.hh"
#include "util/rng.hh"
#include "util/stopwatch.hh"
#include "workload/evaluator.hh"

using namespace specee;

namespace {

// --- frozen workload parameters --------------------------------------
// Every value below is part of the benchmark: changing one changes
// what it measures, and the baseline has to be measured again.

constexpr const char *kModel = "llama2-7b";
constexpr const char *kSmokeModel = "tiny";
constexpr int kRequests = 100; ///< p90 needs >= 100 samples
constexpr int kWorkers = 2;    ///< worker engines of the timed drains
constexpr int kSetups = 3;     ///< setup_s is their median
constexpr int kMinDrains = 1;  ///< timed drains per measured run

// single_stream: closed loop, one client.
constexpr int kSingleGen = 16;
// chat: open loop, continuous batching.
constexpr int kChatGen = 16;
constexpr double kChatRps = 8.0;
// long_prompt_pressure: interactive stream + long batch-tier prompts.
constexpr int kLppInteractive = 96;
constexpr int kLppInteractiveGen = 16;
constexpr double kLppInteractiveRps = 2.0;
constexpr int kLppBatch = 12;
constexpr int kLppBatchGen = 16;
constexpr int kLppBatchPrompt = 2048;
constexpr double kLppBatchRps = 0.25;
constexpr double kLppBatchDeadlineS = 120.0;
constexpr int kLppKvBlocksPerLayer = 20;
// shared_prefix_tree: multi-turn conversations over a shared template.
constexpr int kTreeGen = 16;
constexpr int kTreeTurns = 4;
constexpr double kTreeRps = 0.5;
constexpr int kTreePrompt = 1024;
constexpr double kTreeReuse = 0.9;

// Fixed interactive-tier SLO limits (never derived at run time).
constexpr obs::SloSpec kChatSlo{0.5, 0.1, 0.0};  ///< TTFT s, ITL s
constexpr obs::SloSpec kMixedSlo{1.0, 0.25, 0.0}; ///< TTFT s, ITL s

constexpr const char *kModeled = "modeled";
constexpr const char *kWall = "wall";
constexpr const char *kProcess = "process";

/** printf into a std::string. */
std::string
strf(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

/** Correctness checks; any failure makes the run exit non-zero. */
struct Checks
{
    std::vector<std::string> failed;

    void expect(bool ok, const std::string &what)
    {
        if (!ok)
            failed.push_back(what);
    }
};

/** One named metric with its unit and the clock it is measured on. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string clock;
};

using Metrics = std::vector<Metric>;

void
put(Metrics &m, const std::string &name, double value, const char *unit,
    const char *clock)
{
    m.push_back({name, value, unit, clock});
}

/** Equal up to floating-point re-association. */
bool
nearlyEqual(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 + 1e-9 * std::fabs(b);
}

double
median(std::vector<double> v)
{
    return metrics::percentile(std::move(v), 50.0);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
ratio(long num, long den)
{
    return ratio(static_cast<double>(num), static_cast<double>(den));
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// --- workloads ---------------------------------------------------------

/**
 * Re-stamp an open-loop stream's arrivals as a Poisson process at
 * `rate_rps` with stratified gaps: the n inter-arrival gaps are the
 * exponential quantiles at (k + 0.5) / n, in a shuffled order that is
 * part of the frozen workload, not of the seed. Every seed thus
 * offers the same bursts at the same times and differs in what it
 * sends (prompts, decode seeds, prefix sharing), so seed-to-seed
 * spread measures the system, not the luck of the arrival draw.
 */
void
stratifyArrivals(std::vector<serve::Request> &stream, double rate_rps)
{
    const size_t n = stream.size();
    std::vector<double> gaps(n);
    for (size_t k = 0; k < n; ++k) {
        const double u =
            (static_cast<double>(k) + 0.5) / static_cast<double>(n);
        gaps[k] = -std::log(1.0 - u) / rate_rps;
    }
    Rng rng(0xa771a1ull + n);
    rng.shuffle(gaps);
    double clock = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double deadline =
            stream[i].deadline_s > 0.0
                ? stream[i].deadline_s - stream[i].arrival_s
                : 0.0;
        clock += gaps[i];
        stream[i].arrival_s = clock;
        if (deadline > 0.0)
            stream[i].deadline_s = clock + deadline;
    }
}

/** synthesizeStream with stratified Poisson arrivals. */
std::vector<serve::Request>
openLoop(const serve::StreamOptions &so)
{
    auto stream = serve::synthesizeStream(so);
    stratifyArrivals(stream, so.rate_rps);
    return stream;
}

/** One frozen workload, instantiated for a seed. */
struct Workload
{
    std::string name;
    engines::EngineConfig engine =
        engines::EngineConfig::huggingFace().withSpecEE();
    serve::SchedulerOptions sched;
    /** TTFT is timed from admission (the client sends then). */
    bool closed_loop = false;
    std::vector<serve::Request> stream;
    std::vector<std::pair<std::string, double>> params;
};

/**
 * Build workload `name` for `seed`; the seed is the only input to
 * serve::synthesizeStream. Smoke runs shrink every stream fivefold.
 */
Workload
makeWorkload(const std::string &name, uint64_t seed, bool smoke,
             int n_layers)
{
    const auto scaled = [&](int n) {
        return smoke ? std::max(4, n / 5) : n;
    };
    Workload wl;
    wl.name = name;
    auto &s = wl.sched;
    auto &p = wl.params;
    if (name == "single_stream") {
        serve::StreamOptions so;
        so.n_requests = scaled(kRequests);
        so.gen_len = kSingleGen;
        so.seed = seed;
        wl.stream = serve::synthesizeStream(so);
        wl.closed_loop = true;
        s.max_batch = 1;
        s.slo.interactive = kChatSlo;
        p = {{"requests", so.n_requests},
             {"gen_len", so.gen_len},
             {"max_batch", s.max_batch}};
    } else if (name == "chat") {
        serve::StreamOptions so;
        so.n_requests = scaled(kRequests);
        so.gen_len = kChatGen;
        so.rate_rps = kChatRps;
        so.seed = seed;
        wl.stream = openLoop(so);
        s.max_batch = 16;
        s.prefill.chunk_tokens = 256;
        s.slo.interactive = kChatSlo;
        p = {{"requests", so.n_requests},
             {"gen_len", so.gen_len},
             {"rate_rps", so.rate_rps},
             {"max_batch", s.max_batch},
             {"chunk_tokens", s.prefill.chunk_tokens}};
    } else if (name == "long_prompt_pressure") {
        serve::StreamOptions in;
        in.n_requests = scaled(kLppInteractive);
        in.gen_len = kLppInteractiveGen;
        in.rate_rps = kLppInteractiveRps;
        in.seed = seed;
        serve::StreamOptions bt;
        bt.n_requests = scaled(kLppBatch);
        bt.gen_len = kLppBatchGen;
        bt.rate_rps = kLppBatchRps;
        bt.prompt_len = kLppBatchPrompt;
        bt.deadline_s = kLppBatchDeadlineS;
        bt.priority = serve::Priority::Batch;
        bt.id_base = 1000;
        bt.seed = seed * 0x9e3779b97f4a7c15ull + 0xba7c4;
        wl.stream = serve::mergeStreams(openLoop(in), openLoop(bt));
        s.max_batch = 16;
        s.prefill.chunk_tokens = 256;
        s.prefill.max_tokens_per_iteration = 512;
        s.kv_budget_blocks = kLppKvBlocksPerLayer * n_layers;
        s.preempt_mode = serve::PreemptMode::Auto;
        s.topology.overlap_transfers = true;
        s.slo.interactive = kMixedSlo;
        p = {{"interactive_requests", in.n_requests},
             {"interactive_gen_len", in.gen_len},
             {"interactive_rate_rps", in.rate_rps},
             {"batch_requests", bt.n_requests},
             {"batch_gen_len", bt.gen_len},
             {"batch_prompt_len", bt.prompt_len},
             {"batch_rate_rps", bt.rate_rps},
             {"batch_deadline_s", bt.deadline_s},
             {"max_batch", s.max_batch},
             {"chunk_tokens", s.prefill.chunk_tokens},
             {"iter_tokens", s.prefill.max_tokens_per_iteration},
             {"kv_budget_blocks", s.kv_budget_blocks}};
    } else if (name == "shared_prefix_tree") {
        serve::StreamOptions so;
        so.n_requests = scaled(kRequests);
        so.gen_len = kTreeGen;
        so.rate_rps = kTreeRps;
        so.turns = kTreeTurns;
        so.prompt_len = kTreePrompt;
        so.prefix_reuse = kTreeReuse;
        so.seed = seed;
        wl.stream = openLoop(so);
        wl.engine = wl.engine.withSpecDecode();
        s.max_batch = 16;
        s.prefill.chunk_tokens = 256;
        s.prefill.max_tokens_per_iteration = 1024;
        s.prefix_cache.enabled = true;
        s.slo.interactive = kMixedSlo;
        p = {{"requests", so.n_requests},
             {"gen_len", so.gen_len},
             {"rate_rps", so.rate_rps},
             {"turns", so.turns},
             {"prompt_len", so.prompt_len},
             {"prefix_reuse", so.prefix_reuse},
             {"max_batch", s.max_batch},
             {"chunk_tokens", s.prefill.chunk_tokens},
             {"iter_tokens", s.prefill.max_tokens_per_iteration}};
    } else {
        std::fprintf(stderr, "unknown workload: %s\n", name.c_str());
        std::exit(2);
    }
    p.push_back({"slo_ttft_s", s.slo.interactive.ttft_s});
    p.push_back({"slo_itl_s", s.slo.interactive.itl_s});
    return wl;
}

/** A workload bound to its trained pipeline. */
struct Bench
{
    const Workload &wl;
    const engines::Pipeline &pipe;
    /** Each request's scripted single-instance workload, by id. */
    std::map<uint64_t, workload::Workload> scripts;

    Bench(const Workload &w, const engines::Pipeline &p) : wl(w), pipe(p)
    {
        for (const auto &r : wl.stream) {
            scripts.emplace(r.id, serve::buildPromptWorkload(
                                      pipe, r, wl.engine.q4Calibrated()));
        }
    }

    const workload::Workload &script(uint64_t id) const
    {
        return scripts.at(id);
    }
};

// --- one drain ---------------------------------------------------------

/** A timed drain: the report, the streamed tokens and its costs. */
struct Drain
{
    serve::ServeReport rep;
    std::vector<serve::TokenEvent> events; ///< on_token, in order
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

/** Serving node that records every streamed token. */
class Node
{
  public:
    Node(const engines::Pipeline &pipe, const Workload &wl, int workers,
         bool traced)
    {
        serve::ServerOptions o;
        o.engine = wl.engine;
        o.spec = hw::HardwareSpec::a100();
        o.workers = workers;
        o.sched = wl.sched;
        o.sched.trace.enabled = traced;
        o.on_token = [this](const serve::TokenEvent &ev) {
            events_.push_back(ev);
            return true;
        };
        server_ = std::make_unique<serve::Server>(pipe, o);
    }

    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;

    Drain drain(const std::vector<serve::Request> &stream)
    {
        events_.clear();
        server_->submit(stream);
        Drain d;
        const double cpu0 = cpuSeconds();
        Stopwatch sw;
        d.rep = server_->drain();
        d.wall_s = sw.seconds();
        d.cpu_s = cpuSeconds() - cpu0;
        d.events = std::move(events_);
        return d;
    }

  private:
    std::vector<serve::TokenEvent> events_;
    std::unique_ptr<serve::Server> server_;
};

bool
failedOutcome(const serve::RequestOutcome &o)
{
    return o.dropped || o.cancelled;
}

/** FNV-1a over the drain's tokens and modeled timeline. */
uint64_t
digest(const Drain &d)
{
    uint64_t h = 1469598103934665603ull;
    const auto add = [&](const void *p, size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i)
            h = (h ^ b[i]) * 1099511628211ull;
    };
    const auto num = [&](auto v) { add(&v, sizeof v); };
    for (const auto &o : d.rep.outcomes) {
        num(o.request.id);
        num(o.admit_s);
        num(o.finish_s);
        num(o.ttft_s);
        num(o.max_itl_s);
        num(o.preemptions);
        num(o.swaps);
        num(o.cached_tokens);
        num(failedOutcome(o));
        for (const auto &em : o.result.emissions) {
            add(em.tokens.data(), em.tokens.size() * sizeof(int));
            add(em.exit_layers.data(),
                em.exit_layers.size() * sizeof(int));
        }
    }
    for (const auto &ev : d.events) {
        num(ev.request_id);
        num(ev.token);
        num(ev.index);
        num(ev.emit_s);
    }
    const auto &f = d.rep.fleet;
    num(f.tokens);
    num(f.iterations);
    num(f.makespan_s);
    num(f.energy_j);
    num(f.preemptions);
    num(f.prefix_hits);
    num(f.peak_kv_blocks);
    return h;
}

// --- end-to-end metrics of one drain -----------------------------------

/** Per-request stream the benchmark derives from its own token log. */
struct Stream
{
    std::vector<int> tokens;
    std::vector<double> emit_s;
};

/** Everything the benchmark derives from one drain by itself. */
struct Analysis
{
    std::vector<double> ttft_s;  ///< completed requests
    std::vector<double> tpot_ms; ///< completed requests, >= 2 tokens
    std::vector<double> gaps_ms; ///< every delivered gap
    long submitted = 0;
    long failed = 0;
    Metrics modeled; ///< end-to-end metrics on the modeled clock
};

Analysis
analyze(const Bench &b, const Drain &d, Checks &checks)
{
    std::map<uint64_t, Stream> streams;
    for (const auto &ev : d.events) {
        Stream &s = streams[ev.request_id];
        checks.expect(ev.index == static_cast<int>(s.tokens.size()),
                      strf("request %llu: token index %d out of order",
                           (unsigned long long)ev.request_id, ev.index));
        checks.expect(s.emit_s.empty() || ev.emit_s >= s.emit_s.back(),
                      strf("request %llu: emission time went backwards",
                           (unsigned long long)ev.request_id));
        s.tokens.push_back(ev.token);
        s.emit_s.push_back(ev.emit_s);
    }

    Analysis a;
    long delivered = 0, attained = 0, attained_tokens = 0;
    long matched = 0, graded = 0;
    const auto &fleet = d.rep.fleet;
    for (const auto &o : d.rep.outcomes) {
        const uint64_t id = o.request.id;
        ++a.submitted;
        const Stream &s = streams[id];
        delivered += static_cast<long>(s.tokens.size());
        for (size_t i = 1; i < s.emit_s.size(); ++i)
            a.gaps_ms.push_back(1e3 * (s.emit_s[i] - s.emit_s[i - 1]));
        // A failed request delivered nothing whole: it misses its SLO.
        if (failedOutcome(o)) {
            ++a.failed;
            continue;
        }
        const auto &em = o.result.emissions.front();
        checks.expect(!s.tokens.empty() && s.tokens == em.tokens,
                      strf("request %llu: streamed tokens differ from "
                           "its outcome",
                           (unsigned long long)id));
        if (s.tokens.empty())
            continue;
        checks.expect(s.emit_s.front() - o.request.arrival_s == o.ttft_s,
                      strf("request %llu: TTFT disagrees with its outcome",
                           (unsigned long long)id));
        double max_gap = 0.0;
        for (size_t i = 1; i < s.emit_s.size(); ++i)
            max_gap = std::max(max_gap, s.emit_s[i] - s.emit_s[i - 1]);
        checks.expect(max_gap == o.max_itl_s,
                      strf("request %llu: worst ITL disagrees with its "
                           "outcome",
                           (unsigned long long)id));

        const double ttft = s.emit_s.front() - (b.wl.closed_loop
                                                    ? o.admit_s
                                                    : o.request.arrival_s);
        a.ttft_s.push_back(ttft);
        if (s.tokens.size() >= 2) {
            a.tpot_ms.push_back(1e3 *
                                (s.emit_s.back() - s.emit_s.front()) /
                                static_cast<double>(s.tokens.size() - 1));
        }
        const obs::SloSpec &slo =
            b.wl.sched.slo.tier(static_cast<int>(o.request.priority));
        const bool kept = (slo.ttft_s <= 0.0 || ttft <= slo.ttft_s) &&
                          (slo.itl_s <= 0.0 || max_gap <= slo.itl_s);
        if (kept) {
            ++attained;
            attained_tokens += static_cast<long>(s.tokens.size());
        }
        checks.expect(b.wl.closed_loop || !o.slo.evaluated ||
                          kept == o.slo.attained(),
                      strf("request %llu: SLO verdict disagrees with the "
                           "scheduler's",
                           (unsigned long long)id));
        const auto q = workload::Evaluator::evaluate(b.script(id), {em},
                                                     b.pipe.corpus());
        graded += q.tokens;
        matched += std::lround(q.token_match_rate *
                               static_cast<double>(q.tokens));
    }

    // The benchmark's own accounting must agree with FleetStats.
    checks.expect(delivered == fleet.tokens,
                  strf("streamed %ld tokens, FleetStats says %ld",
                       delivered, fleet.tokens));
    checks.expect(nearlyEqual(metrics::percentile(a.gaps_ms, 99.0),
                              1e3 * fleet.p99_itl_s),
                  "p99 ITL disagrees with FleetStats");
    checks.expect(fleet.dropped + fleet.cancelled == a.failed,
                  "failed requests disagree with FleetStats");
    if (!b.wl.closed_loop) {
        checks.expect(nearlyEqual(metrics::percentile(a.ttft_s, 50.0),
                                  fleet.p50_ttft_s),
                      "p50 TTFT disagrees with FleetStats");
        long judged = 0;
        for (const auto &o : d.rep.outcomes)
            judged += o.slo.evaluated ? 1 : 0;
        checks.expect(judged == fleet.slo_evaluated,
                      "SLO-judged requests disagree with FleetStats");
    }

    const metrics::Stats ttft(a.ttft_s);
    const metrics::Stats tpot(a.tpot_ms);
    const metrics::Stats gaps(a.gaps_ms);
    auto &m = a.modeled;
    put(m, "model_tok_s", fleet.tokens_per_s, "tok/s", kModeled);
    put(m, "ttft_p50_s", ttft.percentile(50.0), "s", kModeled);
    put(m, "ttft_p90_s", ttft.percentile(90.0), "s", kModeled);
    put(m, "tpot_p50_ms", tpot.percentile(50.0), "ms", kModeled);
    put(m, "tpot_p90_ms", tpot.percentile(90.0), "ms", kModeled);
    put(m, "itl_p99_ms", gaps.percentile(99.0), "ms", kModeled);
    put(m, "slo_attain_frac", ratio(attained, a.submitted), "frac",
        kModeled);
    put(m, "goodput_slo_tok_s",
        ratio(static_cast<double>(attained_tokens), fleet.makespan_s),
        "tok/s", kModeled);
    put(m, "token_match", ratio(matched, graded), "frac", kModeled);
    return a;
}

/**
 * Open-loop backlog check: the median queue wait of the last quarter
 * of interactive arrivals may not exceed twice that of the first
 * quarter, unless it stays under half the tier's TTFT limit. Medians,
 * so one burst of long prompts is not a trend.
 */
void
checkBacklog(const Bench &b, const Drain &d, Checks &checks)
{
    if (b.wl.closed_loop)
        return;
    std::vector<double> waits;
    for (const auto &o : d.rep.outcomes)
        if (o.request.priority == serve::Priority::Interactive)
            waits.push_back(o.queue_s);
    const auto q = static_cast<long>(waits.size() / 4);
    if (q == 0)
        return;
    const double first =
        median(std::vector<double>(waits.begin(), waits.begin() + q));
    const double last =
        median(std::vector<double>(waits.end() - q, waits.end()));
    const double floor_s = 0.5 * b.wl.sched.slo.interactive.ttft_s;
    checks.expect(last <= std::max(2.0 * first, floor_s),
                  strf("backlog grows: last-quarter queue wait %.4f s vs "
                       "first-quarter %.4f s",
                       last, first));
}

/** Each workload must stress the layer it exists for, and only it. */
void
checkStress(const Bench &b, const Drain &d, bool smoke, Checks &checks)
{
    const auto &f = d.rep.fleet;
    const std::string &name = b.wl.name;
    const bool tree = name == "shared_prefix_tree";
    const bool lpp = name == "long_prompt_pressure";
    checks.expect((f.prefix_hits > 0) == tree,
                  strf("%ld prefix-cache hits on %s", f.prefix_hits,
                       name.c_str()));
    // Preemption needs 7B-length sessions to overlap under the budget,
    // so a smoke run only checks that the other workloads have none.
    checks.expect(lpp ? smoke || f.preemptions >= 10 : f.preemptions == 0,
                  strf("%ld preemptions on %s", f.preemptions,
                       name.c_str()));
    if (b.wl.closed_loop) {
        checks.expect(f.mean_batch_occupancy == 1.0,
                      strf("mean batch %.4f on the single stream",
                           f.mean_batch_occupancy));
    }
    long passes = 0, tokens = 0;
    for (const auto &o : d.rep.outcomes) {
        if (failedOutcome(o))
            continue;
        passes += o.result.stats.passes;
        tokens += o.result.stats.tokens;
    }
    checks.expect((passes > 0 && tokens > passes) == tree,
                  strf("%ld tokens over %ld tree passes on %s", tokens,
                       passes, name.c_str()));
    if (lpp) {
        long batch = 0, dropped = 0;
        for (const auto &o : d.rep.outcomes) {
            if (o.request.priority != serve::Priority::Batch)
                continue;
            ++batch;
            dropped += o.dropped ? 1 : 0;
        }
        checks.expect(20 * dropped <= batch,
                      strf("%ld of %ld batch-tier requests dropped",
                           dropped, batch));
    }
}

// --- traced run: per-layer metrics -------------------------------------

/** Per-request engine counters summed over completed requests. */
struct EngineTotals
{
    long tokens = 0;
    long layers = 0;
    long exits = 0;
    long exits_on_target = 0;
    long predictors = 0;
    long passes = 0;
    long verify_calls = 0;
    long verify_rejects = 0;
};

EngineTotals
engineTotals(const Bench &b, const Drain &d)
{
    EngineTotals t;
    const int n_layers = b.pipe.modelConfig().n_layers;
    for (const auto &o : d.rep.outcomes) {
        if (failedOutcome(o))
            continue;
        const auto &em = o.result.emissions.front();
        const auto &steps = b.script(o.request.id).instances.front().steps;
        for (size_t i = 0; i < em.tokens.size(); ++i) {
            t.layers += em.exit_layers[i];
            if (em.exit_layers[i] < n_layers) {
                ++t.exits;
                t.exits_on_target += em.tokens[i] == steps[i].target;
            }
        }
        const auto &st = o.result.stats;
        t.tokens += static_cast<long>(em.tokens.size());
        t.predictors += st.predictor_invocations;
        t.passes += st.passes;
        t.verify_calls += st.verify_calls;
        t.verify_rejects += st.verify_rejects;
    }
    return t;
}

/** One wall-clock span of the replay. */
struct Span
{
    const char *name;
    double t0_us = 0.0;
    double t1_us = 0.0;
    int parent = -1;
    uint64_t request = 0;
};

/** Engine calls of every served request, replayed and timed. */
struct Replay
{
    std::vector<double> step_us;
    std::vector<double> prefill_us;
    long step_tokens = 0;
    /**
     * Wall of the engine work the drain did: every step, and each
     * prompt's prefill scaled to the share the prefix cache did not
     * serve (the replay has no cache and ingests whole prompts).
     */
    double engine_s = 0.0;
    std::vector<Span> spans;
};

/**
 * Replay every completed request alone through Engine::makeSession on
 * a paged KV pool (the drain's KV path), with the drain's chunk size,
 * timing each engine call; the replayed tokens must equal the served
 * ones.
 */
Replay
replay(const Bench &b, const Drain &d, Checks &checks)
{
    Replay r;
    auto engine = b.pipe.makeEngine(b.wl.engine, hw::HardwareSpec::a100());
    const auto &mcfg = b.pipe.modelConfig();
    auto pool = std::make_shared<model::PagedKvCache>(
        mcfg.n_layers,
        mcfg.n_layers * (mcfg.context_len / model::kKvBlockSize + 2),
        mcfg.sim.hidden);
    const int chunk = b.wl.sched.prefill.chunk_tokens;
    Stopwatch clock;
    const auto now_us = [&] { return clock.micros(); };
    r.spans.push_back({"drain", 0.0, 0.0, -1, 0});
    for (const auto &o : d.rep.outcomes) {
        if (failedOutcome(o))
            continue;
        const uint64_t id = o.request.id;
        const int parent = static_cast<int>(r.spans.size());
        r.spans.push_back({"request", now_us(), 0.0, 0, id});
        auto sess = engine->makeSession(
            b.script(id), o.request.seed,
            std::make_unique<model::SequenceKv>(pool));
        const auto call = [&](const char *name, auto &&fn,
                              std::vector<double> &samples) {
            const double t0 = now_us();
            fn();
            const double t1 = now_us();
            samples.push_back(t1 - t0);
            r.spans.push_back({name, t0, t1, parent, id});
            return 1e-6 * (t1 - t0);
        };
        double prefill_s = 0.0;
        if (chunk > 0) {
            while (!sess->prefillDone()) {
                prefill_s += call("engine.prefill_chunk",
                                  [&] { sess->prefillChunk(chunk); },
                                  r.prefill_us);
            }
        } else {
            prefill_s += call("engine.prefill", [&] { sess->prefill(); },
                              r.prefill_us);
        }
        const int prompt = b.script(id).true_prompt_len;
        r.engine_s += prefill_s * ratio(static_cast<long>(prompt) -
                                            o.cached_tokens,
                                        static_cast<long>(prompt));
        while (!sess->finished()) {
            r.engine_s += call("engine.step", [&] { sess->step(); },
                               r.step_us);
            r.step_tokens += sess->lastStep().tokens;
        }
        r.spans[static_cast<size_t>(parent)].t1_us = now_us();
        checks.expect(sess->emission().tokens ==
                          o.result.emissions.front().tokens,
                      strf("request %llu: served tokens differ from the "
                           "engine replay",
                           (unsigned long long)id));
    }
    r.spans.front().t1_us = now_us();
    return r;
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"span\": %zu, \"parent\": %d, \"request\": "
                     "%llu}}%s\n",
                     s.name, s.t0_us, s.t1_us - s.t0_us, i, s.parent,
                     (unsigned long long)s.request,
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

/**
 * Per-layer metrics of a traced run: `w1` is the untraced one-worker
 * drain, `traced` the same with the fleet trace on, `w2` the
 * two-worker drain and `rp` the engine replay.
 */
Metrics
layerMetrics(const Bench &b, const Drain &w1, const Drain &traced,
             const Drain &w2, const Replay &rp)
{
    Metrics m;
    const auto &f = w1.rep.fleet;
    const double tok = static_cast<double>(f.tokens);

    std::vector<double> queue;
    long prompt_tokens = 0, uncached_tokens = 0;
    for (const auto &o : w1.rep.outcomes) {
        queue.push_back(o.queue_s);
        const int len = b.script(o.request.id).true_prompt_len;
        prompt_tokens += len;
        if (!failedOutcome(o))
            uncached_tokens += len - o.cached_tokens;
    }
    const metrics::Stats q(queue);
    put(m, "serve.iterations", static_cast<double>(f.iterations), "count",
        kModeled);
    put(m, "serve.batch_mean", f.mean_batch_occupancy, "sessions",
        kModeled);
    put(m, "serve.queue_p50_s", q.percentile(50.0), "s", kModeled);
    put(m, "serve.queue_p90_s", q.percentile(90.0), "s", kModeled);
    put(m, "serve.prefill_tokens", static_cast<double>(f.prefill_tokens),
        "tok", kModeled);
    put(m, "serve.prefill_chunks", static_cast<double>(f.prefill_chunks),
        "count", kModeled);
    put(m, "serve.self_ms_per_iter",
        1e3 * ratio(w1.wall_s - rp.engine_s,
                    static_cast<double>(f.iterations)),
        "ms", kWall);
    put(m, "serve.parallel_speedup", ratio(w1.wall_s, w2.wall_s), "x",
        kWall);
    // The measured run's wall_tok_s, from this run's one drain in the
    // same configuration (two workers, untraced).
    put(m, "wall_tok_s", ratio(tok, w2.wall_s), "tok/s", kWall);

    put(m, "kv.peak_blocks", static_cast<double>(f.peak_kv_blocks),
        "blocks", kModeled);
    put(m, "kv.preemptions", static_cast<double>(f.preemptions), "count",
        kModeled);
    put(m, "kv.swaps_out", static_cast<double>(f.swaps_out), "count",
        kModeled);
    put(m, "kv.recomputes",
        static_cast<double>(f.preemptions - f.swaps_out), "count",
        kModeled);
    // Prefill tokens executed beyond each prompt's uncached part once:
    // the work recompute preemption throws away and re-does.
    put(m, "kv.replay_tokens",
        f.prefill_tokens > 0 ? static_cast<double>(std::max(
                                   0l, f.prefill_tokens - uncached_tokens))
                             : 0.0,
        "tok", kModeled);
    put(m, "kv.watermark_rejections",
        static_cast<double>(f.watermark_rejections), "count", kModeled);
    put(m, "kv.peak_host_blocks",
        static_cast<double>(f.peak_host_kv_blocks), "blocks", kModeled);

    put(m, "cache.hit_rate", ratio(f.prefix_hits, f.admissions), "frac",
        kModeled);
    put(m, "cache.token_frac", ratio(f.cached_tokens, prompt_tokens),
        "frac", kModeled);
    put(m, "cache.evictions", static_cast<double>(f.cache_evictions),
        "count", kModeled);
    put(m, "cache.peak_blocks", static_cast<double>(f.peak_cached_blocks),
        "blocks", kModeled);

    put(m, "xfer.busy_s", f.transfer_busy_s, "s", kModeled);
    put(m, "xfer.overlapped", static_cast<double>(f.transfers_overlapped),
        "count", kModeled);
    put(m, "xfer.gb", 1e-9 * f.transfer_bytes_sent, "GB", kModeled);

    const metrics::Stats step(rp.step_us);
    put(m, "engine.step_us_p50", step.percentile(50.0), "us", kWall);
    put(m, "engine.step_us_p99", step.percentile(99.0), "us", kWall);
    put(m, "engine.prefill_us_p50", median(rp.prefill_us), "us", kWall);
    put(m, "engine.wall_share", ratio(rp.engine_s, w1.wall_s), "frac",
        kWall);
    put(m, "engine.tokens_per_step",
        ratio(rp.step_tokens, static_cast<long>(rp.step_us.size())),
        "tok/step", kModeled);

    const EngineTotals et = engineTotals(b, w1);
    put(m, "ee.avg_layers", ratio(et.layers, et.tokens), "layers",
        kModeled);
    put(m, "ee.exit_frac", ratio(et.exits, et.tokens), "frac", kModeled);
    put(m, "ee.exit_precision", ratio(et.exits_on_target, et.exits),
        "frac", kModeled);
    put(m, "ee.predictors_per_token", ratio(et.predictors, et.tokens),
        "count/tok", kModeled);
    put(m, "spec.commit_per_pass", ratio(et.tokens, et.passes),
        "tok/pass", kModeled);
    put(m, "spec.verify_reject_frac",
        ratio(et.verify_rejects, et.verify_calls), "frac", kModeled);

    using hw::OpClass;
    const auto ms = [&](std::initializer_list<OpClass> classes) {
        double s = 0.0;
        for (OpClass c : classes)
            s += f.oplog.totals(c).time_s;
        return 1e3 * ratio(s, tok);
    };
    put(m, "op.decoder_ms_per_tok", ms({OpClass::DecoderLayer}), "ms/tok",
        kModeled);
    put(m, "op.predictor_ms_per_tok", ms({OpClass::Predictor}), "ms/tok",
        kModeled);
    put(m, "op.lmhead_ms_per_tok",
        ms({OpClass::LmHeadFull, OpClass::LmHeadSliced}), "ms/tok",
        kModeled);
    put(m, "op.kv_ms_per_tok", ms({OpClass::KvRead, OpClass::KvFill}),
        "ms/tok", kModeled);
    put(m, "op.draft_ms_per_tok", ms({OpClass::Draft}), "ms/tok",
        kModeled);
    put(m, "op.prefill_ms_per_tok",
        ms({OpClass::PrefillWeights, OpClass::PrefillCompute}), "ms/tok",
        kModeled);
    put(m, "op.transfer_ms_per_tok",
        ms({OpClass::KvSwapOut, OpClass::KvSwapIn, OpClass::KvHandoff,
            OpClass::TpAllReduce, OpClass::PpHandoff}),
        "ms/tok", kModeled);
    put(m, "op.gb_per_tok", 1e-9 * ratio(f.oplog.grand().bytes, tok),
        "GB/tok", kModeled);

    std::vector<double> iter_ms, depth;
    double private_s = 0.0, all_s = 0.0;
    for (const auto &ev : traced.rep.fleet.trace) {
        if (ev.kind == obs::TraceKind::Iteration)
            iter_ms.push_back(1e3 * (ev.t1 - ev.t0));
        if (ev.kind == obs::TraceKind::Step)
            depth.push_back(ev.deepest_layer);
        if (ev.kind != obs::TraceKind::Step &&
            ev.kind != obs::TraceKind::PrefillChunk)
            continue;
        for (const auto &[cls, s] : ev.op_s) {
            all_s += s;
            if (!hw::isBatchAmortized(static_cast<OpClass>(cls)))
                private_s += s;
        }
    }
    const metrics::Stats it(iter_ms);
    put(m, "iter.ms_p50", it.percentile(50.0), "ms", kModeled);
    put(m, "iter.ms_p99", it.percentile(99.0), "ms", kModeled);
    put(m, "iter.private_frac", ratio(private_s, all_s), "frac", kModeled);
    put(m, "iter.exit_depth_p50", median(depth), "layers", kModeled);
    put(m, "trace.overhead_frac",
        ratio(traced.wall_s - w1.wall_s, w1.wall_s), "frac", kWall);
    put(m, "proc.cpu_s_per_ktok", ratio(w2.cpu_s, 1e-3 * tok), "s/ktok",
        kProcess);
    return m;
}

/** The modeled metrics of two drains must be bit-identical. */
void
checkSameModel(const char *what, const Analysis &a, const Analysis &b,
               Checks &checks)
{
    for (size_t i = 0; i < a.modeled.size(); ++i) {
        checks.expect(a.modeled[i].value == b.modeled[i].value,
                      strf("%s: %s differs (%.17g vs %.17g)", what,
                           a.modeled[i].name.c_str(), a.modeled[i].value,
                           b.modeled[i].value));
    }
}

// --- result file -------------------------------------------------------

using Pairs = std::vector<std::pair<std::string, double>>;

struct Result
{
    std::string workload;
    uint64_t seed = 0;
    bool traced = false;
    bool smoke = false;
    long attempted = 0;
    long failed = 0;
    Pairs params;
    Pairs samples;
    std::vector<double> drain_wall_s;
    Metrics metrics;

    void count(const Drain &d)
    {
        drain_wall_s.push_back(d.wall_s);
        for (const auto &o : d.rep.outcomes) {
            ++attempted;
            failed += failedOutcome(o) ? 1 : 0;
        }
    }
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    return std::isfinite(v) ? strf("%.17g", v) : "null";
}

std::string
jsonObject(const Pairs &kv)
{
    std::string s;
    for (const auto &[k, v] : kv)
        s += (s.empty() ? "" : ", ") + jsonString(k) + ": " + jsonNumber(v);
    return "{" + s + "}";
}

bool
writeResult(const std::string &path, const Result &r,
            const Checks &checks)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::string walls, fails, mets;
    for (double w : r.drain_wall_s)
        walls += (walls.empty() ? "" : ", ") + jsonNumber(w);
    for (const auto &c : checks.failed)
        fails += (fails.empty() ? "" : ",\n    ") + jsonString(c);
    for (const Metric &m : r.metrics) {
        mets += strf("%s    %s: {\"value\": %s, \"unit\": %s, "
                     "\"clock\": %s}",
                     mets.empty() ? "" : ",\n", jsonString(m.name).c_str(),
                     jsonNumber(m.value).c_str(),
                     jsonString(m.unit).c_str(),
                     jsonString(m.clock).c_str());
    }
    std::fprintf(
        f,
        "{\n  \"workload\": %s,\n  \"seed\": %llu,\n  \"mode\": %s,\n"
        "  \"model\": %s,\n  \"platform\": \"A100\",\n"
        "  \"correct\": %s,\n  \"attempted\": %ld,\n  \"failed\": %ld,\n"
        "  \"checks_failed\": [%s],\n  \"params\": %s,\n"
        "  \"samples\": %s,\n  \"drain_wall_s\": [%s],\n"
        "  \"metrics\": {\n%s\n  }\n}\n",
        jsonString(r.workload).c_str(), (unsigned long long)r.seed,
        r.traced ? "\"traced\"" : "\"measured\"",
        jsonString(r.smoke ? kSmokeModel : kModel).c_str(),
        checks.failed.empty() ? "true" : "false", r.attempted, r.failed,
        fails.c_str(), jsonObject(r.params).c_str(),
        jsonObject(r.samples).c_str(), walls.c_str(), mets.c_str());
    return std::fclose(f) == 0;
}

// --- runs ----------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 12.0;
    std::string out;
    bool traced = false;
    bool smoke = false;
};

engines::PipelineOptions
pipelineOptions(bool smoke)
{
    engines::PipelineOptions o;
    o.model = smoke ? kSmokeModel : kModel;
    o.train_instances = 6;
    o.train_gen_len = 36;
    o.seed = 42;
    return o;
}

/** Set up kSetups times, then time drains of the stream. */
void
measuredRun(const Args &args, const Workload &wl, Checks &checks,
            Result &res)
{
    // Setup: Pipeline (predictor training) + Server construction,
    // repeated; the last one serves the timed drains.
    std::unique_ptr<engines::Pipeline> pipe;
    std::unique_ptr<Node> node;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetups; ++i) {
        node.reset();
        pipe.reset();
        Stopwatch sw;
        pipe = std::make_unique<engines::Pipeline>(
            pipelineOptions(args.smoke));
        node = std::make_unique<Node>(*pipe, wl, kWorkers, false);
        setup_s.push_back(sw.seconds());
    }
    const Bench b(wl, *pipe);

    std::vector<Drain> drains;
    const Stopwatch measure;
    while (static_cast<int>(drains.size()) < kMinDrains ||
           measure.seconds() < args.seconds) {
        drains.push_back(node->drain(wl.stream));
        std::fprintf(stderr, "[bench] %s seed %llu drain %zu: %.3f s\n",
                     wl.name.c_str(), (unsigned long long)args.seed,
                     drains.size(), drains.back().wall_s);
    }
    const Analysis a = analyze(b, drains.front(), checks);
    checkBacklog(b, drains.front(), checks);
    checkStress(b, drains.front(), args.smoke, checks);
    const uint64_t h = digest(drains.front());
    for (size_t i = 1; i < drains.size(); ++i) {
        checks.expect(digest(drains[i]) == h,
                      strf("drain %zu differs from drain 1", i + 1));
        analyze(b, drains[i], checks);
    }
    for (const auto &d : drains)
        res.count(d);

    const double tokens =
        static_cast<double>(drains.front().rep.fleet.tokens);
    put(res.metrics, "setup_s", median(setup_s), "s", kWall);
    put(res.metrics, "wall_tok_s", tokens / median(res.drain_wall_s),
        "tok/s", kWall);
    res.metrics.insert(res.metrics.end(), a.modeled.begin(),
                       a.modeled.end());
    put(res.metrics, "peak_rss_mb", peakRssMb(), "MB", kProcess);
    res.samples = {{"requests", static_cast<double>(a.submitted)},
                   {"requests_failed", static_cast<double>(a.failed)},
                   {"ttft", static_cast<double>(a.ttft_s.size())},
                   {"tpot", static_cast<double>(a.tpot_ms.size())},
                   {"itl_gaps", static_cast<double>(a.gaps_ms.size())},
                   {"drains", static_cast<double>(drains.size())},
                   {"setups", static_cast<double>(setup_s.size())}};
}

/** One traced, one two-worker and one plain drain, then the replay. */
void
tracedRun(const Args &args, const Workload &wl, Checks &checks,
          Result &res)
{
    const engines::Pipeline pipe(pipelineOptions(args.smoke));
    const Bench b(wl, pipe);
    Node n1t(pipe, wl, 1, true);
    Node n2(pipe, wl, kWorkers, false);
    Node n1(pipe, wl, 1, false);
    // A shared host drifts in speed over seconds, so the untraced
    // one-worker drain runs right after the two-worker drain and right
    // before the replay, the two timings it is divided by.
    const Drain d1t = n1t.drain(wl.stream);
    const Drain d2 = n2.drain(wl.stream);
    const Drain d1 = n1.drain(wl.stream);
    const Replay rp = replay(b, d1, checks);

    const Analysis a1 = analyze(b, d1, checks);
    checkSameModel("tracing on vs off", a1, analyze(b, d1t, checks),
                   checks);
    checkSameModel("2 workers vs 1", a1, analyze(b, d2, checks), checks);
    checks.expect(digest(d1) == digest(d1t) && digest(d1) == digest(d2),
                  "tokens or modeled timeline depend on tracing or the "
                  "worker count");
    checks.expect(!d1t.rep.fleet.trace.empty() &&
                      d1.rep.fleet.trace.empty(),
                  "fleet trace recorded in the wrong drain");
    checkBacklog(b, d1, checks);
    checkStress(b, d1, args.smoke, checks);
    res.metrics = layerMetrics(b, d1, d1t, d2, rp);

    std::string stem = args.out;
    if (stem.size() > 5 && stem.compare(stem.size() - 5, 5, ".json") == 0)
        stem.resize(stem.size() - 5);
    checks.expect(writeSpans(stem + ".spans.json", rp.spans),
                  "cannot write " + stem + ".spans.json");
    checks.expect(obs::writeChromeTrace(
                      stem + ".fleet_trace.json", d1t.rep.fleet.trace,
                      wl.sched.topology.devices,
                      wl.sched.topology.prefill_devices),
                  "cannot write " + stem + ".fleet_trace.json");
    for (const Drain *d : {&d1t, &d2, &d1})
        res.count(*d);
    res.samples = {
        {"requests", static_cast<double>(a1.submitted)},
        {"requests_failed", static_cast<double>(a1.failed)},
        {"engine_steps", static_cast<double>(rp.step_us.size())},
        {"iterations", static_cast<double>(d1.rep.fleet.iterations)},
        {"spans", static_cast<double>(rp.spans.size())}};
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: specee_bench --workload W --seed S --out R.json "
                 "[--seconds N] [--traced] [--smoke]\n"
                 "workloads: single_stream chat long_prompt_pressure "
                 "shared_prefix_tree\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(value().c_str(), nullptr);
        else if (k == "--out")
            a.out = value();
        else if (k == "--traced")
            a.traced = true;
        else if (k == "--smoke")
            a.smoke = true;
        else
            usage();
    }
    if (a.workload.empty() || a.out.empty() || !(a.seconds >= 0.0))
        usage();
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    // Measured drains run untraced whatever the environment says
    // (SPECEE_TRACE would switch the fleet trace on).
    unsetenv("SPECEE_TRACE");

    const int n_layers =
        model::ModelConfig::byName(args.smoke ? kSmokeModel : kModel)
            .n_layers;
    const Workload wl =
        makeWorkload(args.workload, args.seed, args.smoke, n_layers);
    Checks checks;
    Result res;
    res.workload = wl.name;
    res.seed = args.seed;
    res.traced = args.traced;
    res.smoke = args.smoke;
    res.params = wl.params;
    if (args.traced)
        tracedRun(args, wl, checks, res);
    else
        measuredRun(args, wl, checks, res);

    for (const auto &[k, v] : res.samples)
        std::fprintf(stderr, "[bench] sample.%s = %.0f\n", k.c_str(), v);
    for (const auto &m : res.metrics) {
        std::printf("%-22s %-26s %14.6g %-9s %s\n", wl.name.c_str(),
                    m.name.c_str(), m.value, m.unit.c_str(),
                    m.clock.c_str());
    }
    for (const auto &f : checks.failed)
        std::fprintf(stderr, "[bench] CHECK FAILED: %s\n", f.c_str());
    if (!writeResult(args.out, res, checks)) {
        std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
        return 1;
    }
    return checks.failed.empty() ? 0 : 1;
}
