#include "serve/request.hh"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "engines/pipeline.hh"
#include "oracle/profiles.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace specee::serve {

std::vector<Request>
synthesizeStream(const StreamOptions &opts)
{
    specee_assert(!opts.datasets.empty(), "stream needs a dataset mix");
    specee_assert(opts.n_requests > 0, "stream needs requests");
    specee_assert(opts.gen_len > 0, "stream needs gen_len > 0, got %d",
                  opts.gen_len);
    specee_assert(opts.prefix_reuse >= 0.0 && opts.prefix_reuse <= 1.0,
                  "prefix_reuse must be in [0, 1], got %f",
                  opts.prefix_reuse);
    specee_assert(opts.turns >= 1, "turns must be >= 1, got %d",
                  opts.turns);

    Rng rng(opts.seed);
    // Sharing decisions draw from a side stream so a stream with
    // prefix_reuse = 0 / turns = 1 is bit-identical to the legacy
    // generator (same gen/decode seeds, same arrival gaps).
    Rng share_rng(opts.seed ^ 0x51a2edull);
    const bool conversational = opts.prefix_reuse > 0.0 || opts.turns > 1;
    const uint64_t stream_template =
        (opts.seed ^ 0x7e3a91c2b5ull) | 1ull;

    std::vector<Request> reqs;
    reqs.reserve(static_cast<size_t>(opts.n_requests));
    double clock = 0.0;
    std::shared_ptr<const PromptSpec> prev_turn;
    uint64_t prev_id = 0;
    bool conv_shared = false;
    for (int i = 0; i < opts.n_requests; ++i) {
        Request r;
        r.id = opts.id_base + static_cast<uint64_t>(i);
        r.dataset =
            opts.datasets[static_cast<size_t>(i) % opts.datasets.size()];
        r.priority = opts.priority;
        r.gen_len = opts.gen_len;
        // Independent prompt per request: the workload generator is
        // seeded per request, not per stream.
        r.gen_seed = rng.next();
        r.seed = rng.next();
        // Unshared prompt of the stream's length (0 keeps the dataset
        // profile's); conversations below replace the spec.
        r.prompt.suffix_len = opts.prompt_len;
        r.prompt.suffix_seed = r.gen_seed;
        if (opts.rate_rps > 0.0) {
            // Poisson arrivals: exponential inter-arrival gaps.
            clock += -std::log(1.0 - rng.uniform()) / opts.rate_rps;
            r.arrival_s = clock;
        }
        if (opts.deadline_s > 0.0)
            r.deadline_s = r.arrival_s + opts.deadline_s;

        if (conversational) {
            const int turn = i % opts.turns;
            const int prompt_len =
                opts.prompt_len > 0
                    ? opts.prompt_len
                    : oracle::profileByName(r.dataset).prompt_len;
            specee_assert(prompt_len >= 2,
                          "conversational streams need prompt_len >= 2, "
                          "got %d",
                          prompt_len);
            int tpl_len = opts.template_prefix_len > 0
                              ? opts.template_prefix_len
                              : 3 * prompt_len / 4;
            tpl_len = std::clamp(tpl_len, 1, prompt_len - 1);
            if (turn == 0) {
                conv_shared = opts.prefix_reuse >= 1.0 ||
                              (opts.prefix_reuse > 0.0 &&
                               share_rng.bernoulli(opts.prefix_reuse));
                prev_turn.reset();
                prev_id = 0;
            }
            // A standalone unshared prompt (turn 0, not shared,
            // single-turn) keeps the spec set above.
            if (turn == 0 && (conv_shared || opts.turns > 1)) {
                // Conversation root. A non-shared conversation gets
                // a private template so its own later turns still
                // chain (and re-use their history), without
                // cross-conversation sharing.
                r.prompt.template_id =
                    conv_shared
                        ? stream_template
                        : ((opts.seed ^
                            (0x9e3779b97f4a7c15ull *
                             (static_cast<uint64_t>(i) + 11ull))) |
                           1ull);
                r.prompt.prefix_len = tpl_len;
                r.prompt.suffix_len = prompt_len - tpl_len;
            } else if (turn > 0) {
                // Continuation turn: extend the parent's full prompt
                // with this turn's fresh text.
                r.prompt.parent = prev_turn;
                r.prompt.parent_id = prev_id;
                r.prompt.suffix_len = std::max(1, prompt_len - tpl_len);
            }
            if (r.prompt.shared()) {
                prev_turn = std::make_shared<PromptSpec>(r.prompt);
                prev_id = r.id;
            }
        }
        reqs.push_back(std::move(r));
    }
    return reqs;
}

std::vector<Request>
mergeStreams(std::vector<Request> a, std::vector<Request> b)
{
    a.insert(a.end(), std::make_move_iterator(b.begin()),
             std::make_move_iterator(b.end()));
    std::sort(a.begin(), a.end(), arrivesBefore);
    // The disjoint-ids contract (use StreamOptions::id_base) is
    // enforced, not just documented.
    requireUniqueIds(a, "mergeStreams");
    return a;
}

void
requireUniqueIds(const std::vector<Request> &rs, const char *who)
{
    std::vector<uint64_t> ids;
    ids.reserve(rs.size());
    for (const Request &r : rs)
        ids.push_back(r.id);
    std::sort(ids.begin(), ids.end());
    for (size_t i = 1; i < ids.size(); ++i) {
        specee_assert(ids[i] != ids[i - 1],
                      "%s: duplicate request id %llu", who,
                      static_cast<unsigned long long>(ids[i]));
    }
}

workload::Workload
buildPromptWorkload(const engines::Pipeline &pipe, const Request &r,
                    bool quantized_cal)
{
    workload::GenOptions gen;
    gen.n_instances = 1;
    gen.gen_len = r.gen_len;
    gen.seed = r.gen_seed;
    if (!r.prompt.shared()) {
        gen.prompt_len_override = r.prompt.suffix_len;
        return pipe.makeWorkload(r.dataset, gen, quantized_cal);
    }
    const std::vector<int> toks = resolvePromptTokens(r.prompt);
    gen.prompt_len_override = static_cast<int>(toks.size());
    workload::Workload w =
        pipe.makeWorkload(r.dataset, gen, quantized_cal);
    // The sim prompt becomes the stride-derived view of the true
    // tokens, so any two requests sharing K true tokens share their
    // first simRowsForSpan(K) sim tokens — the property that makes
    // cross-request KV block sharing bit-safe.
    w.instances.front().prompt =
        derivePromptSim(toks, pipe.modelConfig().sim.vocab);
    return w;
}

} // namespace specee::serve
