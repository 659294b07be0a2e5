/**
 * @file
 * DecodeSession — one request's decode as a stepwise state machine.
 *
 * The session owns everything one in-flight request mutates: its
 * per-request paged KV (a view onto a shared fleet pool, or onto a
 * private single-sequence pool), its rng stream, its exit policy
 * (Engine::makeExitPolicy: SpecEE's feature extractor, online
 * scheduler and exit bar, or a baseline's per-token state), the
 * emission buffer and per-step cost records. It only reads the
 * engine, so sessions of one engine may step on different threads. The
 * lifecycle is prefill() -> step()* -> finished(), where one step()
 * is exactly one scheduler iteration unit: one token autoregressively
 * or one speculative pass (>= 1 committed tokens).
 *
 * An iteration-level scheduler drives many sessions live: it calls
 * step() on every active session per iteration, prices the iteration
 * from lastStep()'s shared/private roofline split, and can destroy a
 * session mid-decode to preempt it (the KV blocks free on
 * destruction; re-decoding under the same seed reproduces the exact
 * emission, which is how recompute-style preemption stays lossless).
 *
 * Engine::run / runOne are thin loops over borrowed-mode sessions, so
 * single-request results are bit-identical to pre-session engines.
 */

#ifndef SPECEE_ENGINES_DECODE_SESSION_HH
#define SPECEE_ENGINES_DECODE_SESSION_HH

#include <array>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "engines/engine.hh"
#include "model/draft_model.hh"
#include "model/paged_kv.hh"
#include "model/target_model.hh"
#include "workload/datasets.hh"
#include "workload/evaluator.hh"

namespace specee::engines {

/**
 * Cost record of one session step, split along the roofline: shared
 * traffic (weight-bound, read once per decode iteration and
 * amortized across the batch) vs private traffic (per-request KV
 * reads, predictors, sliced heads).
 */
struct StepCost
{
    double shared_s = 0.0;
    double private_s = 0.0;
    double shared_j = 0.0;
    double private_j = 0.0;
    int tokens = 0; ///< tokens committed by this step

    /**
     * Deepest decoder layer this step's full-weight stream reached
     * (the early-exit depth for decode, full depth for a prefill
     * chunk; 0 for an idle step).
     */
    int deepest_layer = 0;

    /**
     * Pipeline stages the weight stream occupied — stagesForDepth
     * (deepest_layer) on the engine's stage graph. An early exit at
     * layer k occupies only the stages up to k; the scheduler can
     * backfill the rest. 1 (or 0 when idle) on unsharded engines.
     */
    int stages_used = 0;

    /**
     * Per-stage split of the shared (weight-bound) roofline time and
     * energy, apportioned by each charge's layer range: decoder
     * stream over the traversed layers, KV fill over the skipped
     * tail, prefill weights over the full depth, embed/draft on
     * stage 0, the LM head on the exit stage. Sums to shared_s /
     * shared_j; empty only on a default-constructed (idle) cost.
     */
    std::vector<double> stage_shared_s;
    std::vector<double> stage_shared_j;

    /**
     * Modeled seconds per op class this step charged, as
     * (hw::OpClass value, seconds) for every class with nonzero
     * time — the step-span breakdown the fleet trace records. Sums
     * to shared_s + private_s; pricing never reads it.
     */
    std::vector<std::pair<int, double>> class_s;
};

/**
 * Sim-dims prefix rows a session has filled once `ingested` of its
 * `total` TRUE-dims prompt tokens are in: the whole `prefix_len` at
 * the end, a proportional share (rounded down) before. Chunked
 * prefill and the scheduler's admission reservation share this rule.
 */
int simPrefixRows(int prefix_len, int ingested, int total);

/** Stepwise decode of one workload instance on one Engine. */
class DecodeSession
{
  public:
    /**
     * Borrowed mode (Engine::run internals): draft model, result and
     * rng are shared run-level objects the caller owns; the session
     * decodes instance `instance_idx` of `w` into them.
     */
    DecodeSession(const Engine &eng, const workload::Workload &w,
                  size_t instance_idx, const model::DraftModel &dlm,
                  RunResult &out, Rng &rng);

    /**
     * Owning mode (serving layer): a self-contained per-request
     * session over a single-instance workload. Owns its draft model,
     * rng stream (seeded exactly like Engine::runOne(w, 0, seed))
     * and RunResult. `kv` is the session's view onto a shared fleet
     * pool under continuous batching; null for a private pool.
     */
    DecodeSession(const Engine &eng, workload::Workload w, uint64_t seed,
                  std::unique_ptr<model::SequenceKv> kv = nullptr);

    DecodeSession(const DecodeSession &) = delete;
    DecodeSession &operator=(const DecodeSession &) = delete;

    /**
     * Ingest the prompt (fresh sequence state, or the part left
     * after adoptCachedPrefix()). Call exactly once.
     */
    void prefill();

    /**
     * Resume mid-prompt from a cached prefix: initialize the
     * sequence exactly like a cold prefill (same rng fork), map the
     * paged KV onto the shared block chains (`table[layer]`,
     * `sim_matched` rows, one reference retained per block) and
     * mark the first `true_matched` TRUE-dims prompt tokens as
     * already ingested — the cached span charges no PrefillWeights /
     * PrefillCompute. The cached rows hold exactly what this
     * session's own prefill would have written (prefill is a pure
     * function of the tokens), so subsequent chunks, decode and
     * emissions are bit-identical to a cold run. Call before
     * prefill() / prefillChunk(); `table` must name blocks of the
     * session's pool.
     */
    void adoptCachedPrefix(const std::vector<std::vector<int>> &table,
                           int true_matched, int sim_matched);

    /**
     * Chunked prefill: ingest up to `n_tokens` prompt tokens at the
     * TRUE dimensions, charging the chunk (weight stream + chunk-
     * scaled compute) into the session's oplog and recording it in
     * lastStep() so an iteration-level scheduler can price it like a
     * decode step. The first call initializes the sequence exactly
     * like prefill(); the sim-dims KV fills in proportion to the
     * modeled progress, and the call that consumes the final token
     * completes the functional prefill — after which the session
     * decodes bit-identically to an atomically prefilled one.
     * Mutually exclusive with prefill(). @return tokens consumed
     */
    int prefillChunk(int n_tokens);

    /** True once the whole prompt is ingested (decode may step). */
    bool prefillDone() const { return prefilled_; }

    /** Prompt tokens (true dims) still to ingest; 0 once done. */
    int prefillRemaining() const;

    /** Total prompt length (true dims) this session ingests. */
    int prefillTotal() const { return w_->true_prompt_len; }

    /**
     * Advance one iteration unit (one token, or one speculative
     * pass). @return true while more scripted steps remain.
     * @pre prefill() was called, !finished() and the KV is on the
     * device
     */
    bool step();

    /**
     * Swap-to-host preemption: move this session's KV blocks to the
     * pool's host side (device blocks free), charge the transfer
     * (OpClass::KvSwapOut at true dims) into the session's oplog and
     * freeze the session — everything else (rng stream, emission,
     * prefill progress, speculation state) stays intact, so after
     * swapIn() the session resumes bit-identically without
     * re-ingesting the prompt. @return modeled transfer seconds
     */
    double swapOut();

    /**
     * Restore the KV from the host pool into fresh device blocks and
     * charge OpClass::KvSwapIn. The caller must have reserved pool
     * capacity (hostBlocks() free blocks). @return modeled seconds
     */
    double swapIn();

    /** Device blocks a swapIn() must be able to allocate. */
    int hostBlocks() const { return kv_->hostBlocks(); }

    /**
     * Pin this session's KV blocks for an in-flight DMA (see
     * PagedKvCache::beginTransfer). The functional move (swap or
     * handoff adoption) happens eagerly before the pin; the transfer
     * engine prices when the bytes land, and the scheduler keeps the
     * session out of stepping until then.
     */
    void beginTransfer() { kv_->beginTransfer(); }

    /** The transfer landed (or settled at drop): unpin the blocks. */
    void endTransfer() { kv_->endTransfer(); }

    /**
     * True while this session's KV rides a DMA channel. The session
     * must not step, prefill, swap or drop until the scheduler
     * settles the transfer.
     */
    bool awaitingTransfer() const { return kv_->inTransfer(); }

    /**
     * Charge the prefill->decode KV handoff of this session's cached
     * positions (OpClass::KvHandoff at true dims) into the session's
     * oplog. @return modeled transfer seconds @pre prefillDone()
     */
    double chargeHandoff();

    /**
     * Modeled host-link round trip (swap out + back in) of this
     * session's KV at its current length — the swap side of the
     * scheduler's swap-vs-recompute comparison. Pure pricing.
     */
    double swapRoundTripSeconds() const;

    /**
     * Sequential-equivalent modeled time this run has charged so far
     * (excluding past swap transfers) — exactly what a
     * recompute-style preemption would re-spend, since re-decoding
     * under the same seed re-prices the same ops. The recompute side
     * of the scheduler's policy comparison.
     */
    double modeledCostSoFar() const;

    /** True once every scripted step has been decoded. */
    bool finished() const;

    /** Cost record of the most recent step(). */
    const StepCost &lastStep() const { return last_; }

    /** Tokens emitted so far (live view, also valid mid-decode). */
    const workload::Emission &emission() const { return em_; }

    /** Spec-decode tokens committed by passes (avg_commit_per_pass). */
    long committed() const { return committed_; }

    /** Physical KV blocks this session holds in its pool. */
    int kvBlocks() const { return kv_->blocks(); }

    /** Pool sequence id of the session's KV. */
    int kvSeqId() const { return kv_->seqId(); }

    /** Modeled cached positions at TRUE dims (prompt + emitted). */
    long modeledPositions() const;

    /** Fold the emission into the result. Call exactly once at end. */
    void finishEmission();

    /**
     * Owning mode only: finish the emission, finalize the run stats
     * (identically to Engine::run) and move the result out. The
     * returned RunResult is bit-identical to Engine::runOne(w, 0,
     * seed) for the same workload and seed.
     */
    RunResult finalize();

    const workload::Workload &workload() const { return *w_; }

    /**
     * Override the SpecEE exit-confidence bar for this session's
     * remaining tokens (the adaptive controller's per-tier
     * speculation knob). Defaults to the engine's configured
     * EngineConfig::exit_threshold; already-decoded tokens are
     * unaffected, so a controller epoch boundary changes behavior
     * only forward in time. Other exit modes have no bar.
     */
    void
    setExitThreshold(float t)
    {
        if (policy_ != nullptr)
            policy_->setExitThreshold(t);
    }

  private:
    /** Take `kv` (null: a private pool) as the sequence's KV store. */
    void initKv(std::unique_ptr<model::SequenceKv> kv);

    /**
     * Reset seq_ to a fresh sequence with this instance's noise
     * seed, once: later calls (the next prompt chunk) are no-ops.
     */
    void startSequence();

    bool stepAutoregressive();
    bool stepSpeculative();

    /**
     * Decode the next scripted step from the last committed token
     * (the prompt's last at first) and commit it: the emission, the
     * step index and the outcome's RunStats counters. Charges nothing.
     */
    TokenOutcome commitNext();

    /** Snapshot per-class (time, energy) of the result oplog. */
    std::array<std::pair<double, double>, hw::kNumOpClasses>
    snapshotOplog() const;

    /**
     * Reduce the oplog delta since `before` into last_ along the
     * shared/private roofline split; `tokens` is the number of
     * emissions this unit committed.
     */
    void captureCost(
        const std::array<std::pair<double, double>, hw::kNumOpClasses>
            &before,
        int tokens);

    const Engine &eng_;
    std::optional<workload::Workload> ownedW_;
    const workload::Workload *w_;
    size_t instance_;
    std::optional<Engine::RunStart> owned_; ///< owning mode only
    const model::DraftModel *dlm_;
    RunResult *out_;
    Rng *rng_;

    /**
     * The session's decode state (KV, position, current token,
     * noise rng and layer scratch): every model operation of the
     * session advances it on the engine's shared, immutable model.
     */
    model::SequenceState seq_;
    model::SequenceKv *kv_ = nullptr;    ///< the session's KV (owned by seq_)
    std::unique_ptr<ExitPolicy> policy_; ///< null on a dense engine
    workload::Emission em_;
    size_t stepIdx_ = 0; ///< scripted steps consumed
    long committed_ = 0;
    bool prefilled_ = false;
    bool prefillStarted_ = false; ///< sequence reset / first chunk ran
    int prefillTrue_ = 0;         ///< true-dims prompt tokens ingested
    int simFilled_ = 0;           ///< sim prefix tokens appended to KV
    bool emissionDone_ = false;
    /** Deepest layer the last step's weight stream traversed. */
    int lastDeepest_ = 0;
    /** First layer of the last step's KV-fill range ([lo, L)). */
    int lastFillLo_ = 0;
    StepCost last_;
};

} // namespace specee::engines

#endif // SPECEE_ENGINES_DECODE_SESSION_HH
