/**
 * @file
 * Serving requests: the unit of work the cloud server schedules.
 *
 * A Request names a dataset profile, per-request generation options,
 * a simulated arrival time and an optional deadline; the
 * RequestOutcome pairs the engine's functional result with the
 * timeline the live scheduler gave it (admission, first token,
 * finish, preemptions). synthesizeStream() builds the Poisson
 * request mixes the offered-load sweeps use (§7.2.1).
 */

#ifndef SPECEE_SERVE_REQUEST_HH
#define SPECEE_SERVE_REQUEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "engines/engine.hh"
#include "obs/slo.hh"
#include "serve/prompt_spec.hh"
#include "workload/datasets.hh"

namespace specee::engines {
class Pipeline;
}

namespace specee::serve {

/**
 * Latency tier of a request. Interactive requests are admitted
 * before batch-tier requests (FIFO within each tier), and the
 * scheduler prefers batch-tier sessions as preemption victims.
 */
enum class Priority : int {
    Interactive = 0, ///< latency-sensitive (chat) — admitted first
    Batch = 1,       ///< throughput work — preempted first
};

/** One generation request submitted to the server. */
struct Request
{
    uint64_t id = 0;
    std::string dataset = "MT-Bench";

    int gen_len = 48;           ///< decode steps (capped by the profile's)
    uint64_t gen_seed = 0x10ad; ///< workload-generator seed

    /**
     * Prompt identity (template + suffix + parent turn). An unshared
     * spec never matches the prefix cache; its suffix_len, when set,
     * is the prompt length, else the dataset profile's default.
     */
    PromptSpec prompt;

    double arrival_s = 0.0; ///< simulated arrival time
    uint64_t seed = 1;      ///< per-request decode seed

    /**
     * Absolute completion deadline (client cancellation): the live
     * scheduler drops the request at the first iteration boundary
     * past this time, whether queued or mid-decode. <= 0 disables.
     */
    double deadline_s = 0.0;

    /** Latency tier (admission order and preemption preference). */
    Priority priority = Priority::Interactive;
};

/**
 * Strict (arrival, id) order: the order the scheduler takes requests
 * in and returns their outcomes in.
 */
inline bool
arrivesBefore(const Request &a, const Request &b)
{
    if (a.arrival_s != b.arrival_s)
        return a.arrival_s < b.arrival_s;
    return a.id < b.id;
}

/** Functional result + serving timeline of one completed request. */
struct RequestOutcome
{
    Request request;
    engines::RunResult result;

    double admit_s = 0.0;   ///< first joined a decode batch
    double finish_s = 0.0;  ///< last token emitted (or drop time)
    double latency_s = 0.0; ///< finish - arrival
    double queue_s = 0.0;   ///< first admit - arrival

    /**
     * Streaming timing over the tokens actually delivered, dropped
     * and cancelled requests included; 0 while none was delivered.
     */
    double ttft_s = 0.0;     ///< time to first token (from arrival)
    double mean_itl_s = 0.0; ///< mean inter-token latency
    double max_itl_s = 0.0;  ///< worst delivered inter-token gap

    /**
     * Time from first admission to prompt fully ingested. 0 when
     * chunked prefill is disabled (prompts ingest atomically and
     * free at admission).
     */
    double prefill_s = 0.0;
    int prefill_chunks = 0; ///< chunks the final (kept) run ingested

    int preemptions = 0;   ///< times preempted (either mechanism)
    int swaps = 0;         ///< preemptions served by swap-to-host
    bool dropped = false;  ///< deadline expired before completion
    bool cancelled = false; ///< stream consumer returned false

    /**
     * True-dims prompt tokens served from the prefix cache at
     * admission: their KV was adopted from cached blocks and their
     * prefill charged nothing. 0 on a cache miss or while the cache
     * is disabled.
     */
    int cached_tokens = 0;

    /**
     * Attainment against the tier's SchedulerOptions::slo spec,
     * judged when the request retires (completed or dropped;
     * cancelled streams stay unevaluated). Unevaluated while no
     * objective is configured for the tier.
     */
    obs::SloVerdict slo;
};

/** Options for synthesizing a request stream. */
struct StreamOptions
{
    /** Request mix, cycled round-robin (the paper's cloud mix). */
    std::vector<std::string> datasets = {"MT-Bench", "SUM", "QA"};

    int n_requests = 16;
    int gen_len = 24;

    /**
     * Offered load (requests/s) of a Poisson arrival process;
     * <= 0 means every request arrives at t = 0.
     */
    double rate_rps = 0.0;

    /** Per-request deadline relative to arrival; <= 0 = none. */
    double deadline_s = 0.0;

    /** Latency tier applied to every request of the stream. */
    Priority priority = Priority::Interactive;

    /**
     * Prompt length override (true dims) for every request; <= 0
     * keeps each dataset profile's prompt length. Long-prompt sweeps
     * set this to stress chunked prefill. It is mirrored into each
     * request's PromptSpec, which is what the serving layer reads.
     */
    int prompt_len = 0;

    /**
     * Fraction of conversations whose prompt begins with the
     * stream's shared template (system prompt / few-shot header).
     * Shared prompts carry a PromptSpec and can hit the scheduler's
     * prefix cache; 0 (default) synthesizes the legacy stream of
     * fully independent prompts, bit-identically.
     */
    double prefix_reuse = 0.0;

    /**
     * True-dims length of the shared template; <= 0 derives 3/4 of
     * the prompt length. Ignored while prefix_reuse = 0 and
     * turns = 1.
     */
    int template_prefix_len = 0;

    /**
     * Turns per conversation. > 1 chains consecutive requests with
     * PromptSpec::parent / parent_id: each turn's prompt extends the
     * previous turn's full prompt with a fresh suffix, the
     * multi-turn traffic shape prefix caching serves best.
     */
    int turns = 1;

    /** First request id (merge streams with disjoint id ranges). */
    uint64_t id_base = 0;

    uint64_t seed = 0x5e21e;
};

/**
 * Deterministic request stream: round-robin dataset mix, Poisson
 * arrivals at `rate_rps`, independent per-request prompt and decode
 * seeds. Requests are returned in arrival order.
 */
std::vector<Request> synthesizeStream(const StreamOptions &opts);

/**
 * Merge two request streams into (arrival, id) order. Ids must be
 * disjoint (use StreamOptions::id_base); mixed interactive/batch
 * sweeps merge a short-prompt interactive stream with a long-prompt
 * batch stream.
 */
std::vector<Request> mergeStreams(std::vector<Request> a,
                                  std::vector<Request> b);

/**
 * Die unless every request id in `rs` is distinct: token streams,
 * outcomes, SLO verdicts and trace flows are all keyed by id, so a
 * shared id would credit one request's work to another. `who` names
 * the caller in the message.
 */
void requireUniqueIds(const std::vector<Request> &rs, const char *who);

/**
 * Build the single-instance workload a request decodes — the one
 * place a request's workload::GenOptions is built. An unshared spec
 * sets the true prompt length to its suffix_len (else the dataset
 * profile default); a shared spec derives its true-token sequence,
 * overrides the cost model's true prompt length with it and replaces
 * the sim prompt with the stride-derived tokens (see prompt_spec.hh)
 * so equal true prefixes produce equal sim KV.
 */
workload::Workload buildPromptWorkload(const engines::Pipeline &pipe,
                                       const Request &r,
                                       bool quantized_cal);

} // namespace specee::serve

#endif // SPECEE_SERVE_REQUEST_HH
