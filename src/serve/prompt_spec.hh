/**
 * @file
 * PromptSpec — first-class prompt identity for the serving layer.
 *
 * A prompt length alone (an explicit one or the dataset profile's
 * default) cannot say "these two requests begin the same way". A
 * PromptSpec names the prompt as (shared template, per-request
 * suffix, optional parent turn), and the deterministic TRUE-dims
 * token sequence is derived from it — which is exactly what a radix
 * prefix cache needs as its key: two requests share cached KV iff
 * their derived token sequences share a prefix.
 *
 * The functional simulator runs prompts at sim dims (kSimPromptLen
 * tokens for legacy prompts). Shared prompts instead derive their
 * sim tokens by a fixed-stride rule: sim position j carries the true
 * token at position j * kPromptSimStride, reduced into the sim
 * vocabulary, plus the final true token as the decode input. The
 * stride rule depends only on absolute true positions — never on a
 * prompt's total length — so any two prompts sharing K true tokens
 * share their first ceil(K / stride) sim tokens, and the physical
 * sim-dims KV written for that span is bit-identical across them
 * (TargetModel::prefill is a pure function of the tokens). That is
 * the property that makes cross-request KV block sharing safe.
 */

#ifndef SPECEE_SERVE_PROMPT_SPEC_HH
#define SPECEE_SERVE_PROMPT_SPEC_HH

#include <cstdint>
#include <memory>
#include <vector>

namespace specee::serve {

/**
 * True-token positions covered by one sim-dims prompt token. Shared
 * prompts mark every stride-th true position; the mark rule is a
 * pure function of the absolute position, so shared true prefixes
 * map to shared sim prefixes regardless of total prompt length.
 */
constexpr int kPromptSimStride = 64;

/** Sim prompt rows covering the first `true_tokens` true positions. */
constexpr int
simRowsForSpan(int true_tokens)
{
    return true_tokens <= 0
               ? 0
               : (true_tokens + kPromptSimStride - 1) / kPromptSimStride;
}

/**
 * First-class prompt identity: a shared template plus a per-request
 * suffix, optionally continuing a parent turn (multi-turn chains).
 * The derived true-token sequence is
 *
 *   tokens(parent) ++ template(template_id)[0..prefix_len)
 *                  ++ suffix(suffix_seed)[0..suffix_len)
 *
 * so requests with the same template (or the same parent chain)
 * share a token-level prefix the radix cache can match. A spec
 * without template or parent is UNSHARED and never enters the cache:
 * its suffix_len (synthesizeStream writes StreamOptions::prompt_len
 * there) sets the prompt length, and a zero suffix_len falls back to
 * the dataset profile's.
 */
struct PromptSpec
{
    /** Shared template identity; 0 = no shared template. */
    uint64_t template_id = 0;

    /** True-dims tokens drawn from the template. */
    int prefix_len = 0;

    /** True-dims tokens of the per-request suffix. */
    int suffix_len = 0;

    /** Seed of the per-request suffix token stream. */
    uint64_t suffix_seed = 0;

    /** Request id of the previous turn (0 = first turn). */
    uint64_t parent_id = 0;

    /** Derivation chain of the previous turn's prompt. */
    std::shared_ptr<const PromptSpec> parent;

    /** True when the prompt can share a prefix with other requests. */
    bool
    shared() const
    {
        return template_id != 0 || parent != nullptr;
    }

    /** Total derived true-dims prompt length (parent chain included). */
    int totalLen() const;

    /** Template id of the chain's root turn (engine affinity key). */
    uint64_t rootTemplate() const;
};

/**
 * Derive the deterministic TRUE-dims token sequence of a shared
 * spec. @pre spec.shared() and totalLen() >= 1
 */
std::vector<int> resolvePromptTokens(const PromptSpec &spec);

/**
 * Sim-dims prompt for a derived true-token sequence: the stride
 * marks (each reduced modulo `sim_vocab`) followed by the final true
 * token as the decode input. Size = simRowsForSpan(len) + 1.
 */
std::vector<int> derivePromptSim(const std::vector<int> &true_tokens,
                                 int sim_vocab);

} // namespace specee::serve

#endif // SPECEE_SERVE_PROMPT_SPEC_HH
