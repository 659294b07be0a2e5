/**
 * @file
 * The inference engine: one loop, composable features.
 *
 * Every baseline framework (HuggingFace, vllm, AWQ, llama.cpp,
 * PowerInfer, EAGLE, AdaInfer, RAEE) and every SpecEE variant is an
 * EngineConfig over this class. The engine runs the functional
 * simulator (real math at sim dims) and in parallel prices every
 * logical operator at the true Llama-2 dimensions on the configured
 * platform, so each run yields tokens + quality AND modeled
 * latency / energy / memory.
 *
 * decodeToken runs a token's layers and asks the session's ExitPolicy
 * (SpecEE, AdaInfer or RAEE; none when dense) after each whether to
 * exit. It prices nothing: its TokenOutcome counts what ran, and
 * chargeToken prices that count.
 */

#ifndef SPECEE_ENGINES_ENGINE_HH
#define SPECEE_ENGINES_ENGINE_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "core/raee.hh"
#include "engines/adainfer.hh"
#include "engines/engine_config.hh"
#include "hw/cost_model.hh"
#include "hw/hardware_model.hh"
#include "hw/memory_tracker.hh"
#include "model/draft_model.hh"
#include "model/stage_graph.hh"
#include "model/target_model.hh"
#include "oracle/corpus.hh"
#include "workload/datasets.hh"
#include "workload/evaluator.hh"

namespace specee::engines {

class DecodeSession;

/** Aggregate statistics of one engine run. */
struct RunStats
{
    std::string engine;
    std::string dataset;
    std::string model;
    std::string platform;

    long tokens = 0;
    double modeled_time_s = 0.0;
    double tokens_per_s = 0.0;

    double avg_forward_layers = 0.0;
    double avg_active_predictors = 0.0;
    long predictor_invocations = 0;
    long exits = 0;
    long verify_calls = 0;
    long verify_rejects = 0;
    std::vector<long> exit_histogram; ///< per exit layer; exits only

    hw::OpLog oplog;
    double avg_power_w = 0.0;
    double energy_per_token_j = 0.0;
    double peak_mem_gb = 0.0;

    // Speculative decoding
    long passes = 0;
    double avg_commit_per_pass = 0.0;
    long map_complexity_independent = 0;
    long map_complexity_merged = 0;
};

/** Emissions + statistics of one run. */
struct RunResult
{
    std::vector<workload::Emission> emissions;
    RunStats stats;
};

/** What one token's decode ran, for chargeToken and RunStats. */
struct TokenOutcome
{
    int token = -1;           ///< emitted token
    int layers_used = 0;      ///< decoder layers executed
    int exit_layer = -1;      ///< layer of the early exit; -1: none
    bool drafted = false;     ///< one draft forward speculated tokens
    bool raee_probe = false;  ///< one RAEE retrieval probe ran
    int predictor_checks = 0; ///< exit predictors evaluated
    int sliced_reads = 0;     ///< sliced-head feature extractions
    int verify_calls = 0;     ///< exits checked against the full head
    int verify_rejects = 0;   ///< of which rejected
    int head_reads = 0;       ///< full LM head applications
    int fill_layers = 0;      ///< skipped layers whose KV was back-filled

    bool exited() const { return exit_layer >= 0; }
};

/**
 * One session's early-exit decision, with the state it keeps across
 * tokens. The engine calls beginToken once per token, then onLayer
 * after every exitable layer until it returns a token; each call
 * counts its work into the token's outcome.
 */
class ExitPolicy
{
  public:
    virtual ~ExitPolicy() = default;

    virtual void beginToken(int, const model::TokenScript &, TokenOutcome &)
    {
    }

    /** @return the token to exit with, or nullopt to continue */
    virtual std::optional<int> onLayer(int layer, tensor::CSpan hidden,
                                       TokenOutcome &out) = 0;

    /** SpecEE's predictor confidence bar; other policies have none. */
    virtual void setExitThreshold(float) {}
};

/** Composable LLM inference engine. */
class Engine
{
  public:
    /**
     * @param weights  target weights to share (their backends must
     *                 match `ecfg`); null builds a private set
     */
    Engine(const EngineConfig &ecfg, const model::ModelConfig &mcfg,
           const hw::HardwareSpec &spec,
           const oracle::SyntheticCorpus &corpus,
           std::shared_ptr<const model::Weights> weights = nullptr);

    /** Attach the trained SpecEE predictor bank (required for EE). */
    void setPredictors(const core::ExitPredictor *preds);

    /** Attach the trained AdaInfer SVM bank. */
    void setAdaInferBank(const AdaInferBank *bank);

    /** Attach the RAEE retrieval index. */
    void setRaeeIndex(const core::RaeeIndex *index);

    /** Offline hot-layer set from profiling (T2 offline scheduling). */
    void setOfflineHotLayers(std::vector<int> layers);

    /** Execute a workload; deterministic under `seed`. */
    RunResult run(const workload::Workload &w, uint64_t seed = 1) const;

    /**
     * Per-request entry point for the serving layer: run exactly one
     * instance of `w` under its own rng stream. Re-entrant — every
     * call starts from a fresh model/KV state, so a scheduler can
     * interleave requests freely on one engine and the result depends
     * only on (instance, seed), never on what ran before.
     */
    RunResult runOne(const workload::Workload &w, size_t instance,
                     uint64_t seed = 1) const;

    /**
     * Stepwise per-request entry point for the live serving layer: a
     * self-contained DecodeSession over a single-instance workload,
     * advanced one iteration at a time by an external scheduler.
     * `kv` routes the session's KV through a shared fleet pool; null
     * gives it a private pool. Either way the session can swap, and
     * the finalized result is bit-identical to runOne(w, 0, seed).
     *
     * Sessions only read the engine: each owns its decode state and
     * exit policy, so sessions of one engine may step concurrently
     * on different threads.
     */
    std::unique_ptr<DecodeSession>
    makeSession(const workload::Workload &w, uint64_t seed,
                std::unique_ptr<model::SequenceKv> kv = nullptr) const;

    const EngineConfig &config() const { return ecfg_; }
    const model::ModelConfig &modelConfig() const { return mcfg_; }
    const model::TargetModel &targetModel() const { return *tm_; }
    const hw::HardwareSpec &platform() const { return hwspec_; }

    /** Fraction of weight bytes resident on the device (PC offload). */
    double deviceWeightFrac() const { return devWeightFrac_; }

    /**
     * Memory model of this engine's deployment (weight format, draft
     * model, deployed predictors), shared by per-request peak_mem_gb
     * and the serving layer's fleet view.
     */
    hw::MemoryTracker makeMemoryTracker() const;

    /**
     * Layer-range stage partition of this engine's deployment
     * (EngineConfig::pp contiguous stages; a single stage when
     * unsharded). Shared by the cost charges (handoff crossings),
     * the per-stage StepCost split and the serving scheduler's
     * stage-occupancy tracking.
     */
    const model::StageGraph &stageGraph() const { return stages_; }

    /** Tensor-parallel ways each stage's weights split across. */
    int tpDegree() const { return ecfg_.tp; }

    /** Exitable layers (n_layers - 1). */
    int nExitLayers() const { return mcfg_.n_layers - 1; }

  private:
    friend class DecodeSession;

    /**
     * What every run of `w` starts from: the draft model at the
     * dataset's hit rate (unless overridden), the result header with
     * an empty exit histogram, and the decode rng. run() and an
     * owning DecodeSession both build one, so an owning session's
     * result is bit-identical to runOne.
     */
    struct RunStart
    {
        RunStart(const Engine &eng, const workload::Workload &w,
                 uint64_t seed);

        model::DraftModel dlm;
        RunResult out;
        Rng rng;
    };

    class SpecEEExit;
    class AdaInferExit;
    class RaeeExit;

    /**
     * A session's exit policy from EngineConfig::exit (null when
     * dense). Asserts the policy's trained artifacts are attached.
     */
    std::unique_ptr<ExitPolicy> makeExitPolicy(const model::DraftModel &dlm,
                                               Rng &rng) const;

    /**
     * Functionally decode one token of `seq` under `policy` (null:
     * every layer runs). Charges nothing; the outcome counts what ran.
     */
    TokenOutcome decodeToken(model::SequenceState &seq, int input_token,
                             const model::TokenScript &script,
                             ExitPolicy *policy) const;

    /** Price one autoregressive token at cached length `logical_pos`. */
    void chargeToken(hw::OpLog &log, const TokenOutcome &o,
                     int logical_pos) const;

    /**
     * Reduce accumulated per-token stats to run-level aggregates
     * (averages, modeled time/energy, peak memory). Shared by run()
     * and owning DecodeSessions so both finalize identically.
     */
    void finalizeRun(RunResult &out, const workload::Workload &w,
                     long total_committed) const;

    // --- cost emission at true dimensions -------------------------------
    /** fp16-equivalent weight traffic of one decoder layer. */
    double layerWeightBytes(bool ffn_sparse) const;
    void chargeLayers(hw::OpLog &log, int n_layers, int batch,
                      int logical_pos) const;
    void chargeKvFill(hw::OpLog &log, int n_layers, int batch) const;
    void chargeLmHeadFull(hw::OpLog &log, int batch) const;
    void chargeLmHeadSliced(hw::OpLog &log, int groups,
                            int layer_events) const;
    void chargePredictor(hw::OpLog &log, int batch,
                         int layer_events) const;
    void chargeDraft(hw::OpLog &log, int forwards) const;
    void chargeEmbed(hw::OpLog &log, int n) const;
    void chargeOverhead(hw::OpLog &log) const;

    /**
     * Tensor-parallel collective traffic of `n_layers` decoder
     * layers over `tokens` activation rows: two ring all-reduces per
     * layer (post-attention, post-FFN) at 2(t-1)/t of the activation
     * bytes each, priced over the interconnect. No-op at tp = 1.
     */
    void chargeTpAllReduce(hw::OpLog &log, int n_layers,
                           double tokens) const;

    /**
     * Pipeline activation handoffs of a step that traversed
     * `layers_used` layers: one residual-stream transfer per stage
     * boundary crossed, over `tokens` activation rows. An early exit
     * crosses only the boundaries up to its exit stage. No-op at
     * pp = 1.
     */
    void chargePpHandoff(hw::OpLog &log, int layers_used,
                         double tokens) const;

    /**
     * Modeled host-link time to move the KV of `positions` cached
     * positions (true dims) one way. Pure pricing — the scheduler's
     * swap-vs-recompute policy calls this without charging.
     */
    double kvSwapSeconds(long positions) const;

    /**
     * Price one KV swap transfer (KvSwapOut or KvSwapIn) of
     * `positions` cached positions at true dims into `log`. Swap
     * bytes are private per-request host-link traffic — they never
     * amortize across the batch. @return modeled seconds
     */
    double chargeKvSwap(hw::OpLog &log, hw::OpClass cls,
                        long positions) const;

    /**
     * Price one prefill->decode KV handoff (OpClass::KvHandoff) of
     * `positions` cached positions at true dims into `log`. Handoff
     * bytes are private per-request peer-link traffic — they never
     * amortize across the batch. @return modeled seconds
     */
    double chargeKvHandoff(hw::OpLog &log, long positions) const;

    /**
     * Price one prefill chunk of `n_tokens` prompt tokens (true
     * dims) appended after `past_len` already-ingested positions.
     * The layer weight stream is charged once for the whole chunk
     * (PrefillWeights, batch-amortized: a mixed iteration reads the
     * weights once for prefill chunks and decode steps alike); the
     * chunk-scaled side — GEMM flops over n_tokens, causal attention
     * over the growing past, per-token activations and KV writes —
     * is charged as private PrefillCompute traffic.
     */
    void chargePrefillChunk(hw::OpLog &log, int n_tokens,
                            int past_len) const;

    EngineConfig ecfg_;
    model::ModelConfig mcfg_;
    hw::HardwareSpec hwspec_;
    model::StageGraph stages_;
    const oracle::SyntheticCorpus &corpus_;
    std::unique_ptr<const model::TargetModel> tm_;
    const core::ExitPredictor *preds_ = nullptr;
    const AdaInferBank *ada_ = nullptr;
    const core::RaeeIndex *raee_ = nullptr;
    std::vector<bool> offlineHotMask_; ///< empty until set
    double devWeightFrac_ = 1.0;
    std::unique_ptr<hw::CostModel> cost_;
};

} // namespace specee::engines

#endif // SPECEE_ENGINES_ENGINE_HH
