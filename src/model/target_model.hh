/**
 * @file
 * TargetModel — the simulated target LLM (TLM) with layer-level
 * stepping and convergence steering.
 *
 * The model runs real transformer math (attention over a KV store,
 * SwiGLU FFN, tied LM head) at the simulation dimensions, and blends
 * each layer's output with oracle-directed embedding directions so
 * that the *probability shift* of §4.2 appears at a scripted
 * convergence layer:
 *
 *   - before conv_layer, the hidden state points mostly at the layer
 *     "texture" plus a moderate distractor direction, so the global
 *     argmax is the distractor and speculative-token probabilities
 *     stay flat;
 *   - at conv_layer, a sharp sigmoid ramp rotates the hidden state
 *     onto the (noisy) target-token embedding, so the target's local
 *     probability and logit jump — exactly the feature signal the
 *     SpecEE predictor is trained on;
 *   - at the final layer the target component is forced dominant, so
 *     a full forward pass always emits the scripted target (dense
 *     accuracy is therefore controlled by the workload scripts).
 *
 * This steering substitutes for trained Llama-2 weights, which this
 * repo does not ship; everything else in the pipeline operates on the
 * model exactly as it would on a real checkpoint.
 *
 * The model is immutable after construction: its weights are
 * sequence-independent (one set can back several models;
 * engines::Pipeline shares its dense set with every dense engine it
 * builds), and every decode operation is const and takes the
 * SequenceState it advances. A state holds everything a decode
 * mutates (KV, position, per-token steering directions, the noise
 * rng and the layer scratch), so the serving layer interleaves many
 * DecodeSessions on one model, and threads may decode different
 * sequences on it at once.
 */

#ifndef SPECEE_MODEL_TARGET_MODEL_HH
#define SPECEE_MODEL_TARGET_MODEL_HH

#include <memory>
#include <vector>

#include "model/config.hh"
#include "model/decoder_layer.hh"
#include "model/kv_store.hh"
#include "model/lm_head.hh"
#include "model/paged_kv.hh"
#include "model/weights.hh"
#include "util/rng.hh"

namespace specee::model {

/** Oracle script for one generated token. */
struct TokenScript
{
    int target = 0;      ///< token the full forward pass emits
    int distractor = 0;  ///< pre-convergence global argmax
    int conv_layer = 0;  ///< layer of the probability shift
};

/** Steering strength parameters (defaults calibrated in tests). */
struct SteerParams
{
    float tau = 0.25f;               ///< ramp sharpness
    float distractor_strength = 0.45f;
    /**
     * Per-token multiplier range for the distractor strength
     * (uniform in [1-j, 1+j]). Strong-distractor tokens show high
     * *global* top-1 confidence before convergence — the ambiguity
     * that fools verification-free predictors (AdaInfer) while the
     * *local* speculative probabilities stay flat.
     */
    float distractor_jitter = 0.55f;
    float target_noise = 0.35f;      ///< feature noise level
    float final_alpha = 0.93f;       ///< target dominance at last layer
};

/** Options controlling the functional compute paths. */
struct TargetModelOptions
{
    bool sparse_ffn = false;  ///< PowerInfer-style sparse FFN
    float ffn_active_frac = 0.3f;
    SteerParams steer;
    uint64_t noise_seed = 0xfeed;
};

/**
 * Steering state of one token in flight: its script, its residual
 * stream, and the directions and strength the steering blends in.
 */
struct TokenSteer
{
    TokenScript script{};
    tensor::Vec hidden;
    tensor::Vec dirTarget;
    tensor::Vec dirDistractor;
    float distractorScale = 1.0f; ///< per-token strength multiplier
};

/**
 * Everything one decoded sequence mutates: its KV store, decode
 * position, current-token steering state, the per-sequence noise rng
 * and the scratch its layers compute in. TargetModel::makeSequence()
 * builds one sized for the model; a DecodeSession owns one, and
 * every decode operation of the model takes the state it advances.
 */
struct SequenceState
{
    std::unique_ptr<KvStore> kv;
    Rng noiseRng{0};
    TokenSteer tok;          ///< the current token
    int pos = 0;             ///< position of the token being decoded
    int layer = 0;           ///< next layer to run for the current token
    DecoderLayer scratch;    ///< one-row layer scratch
    bool inToken = false;
};

/**
 * Layer-steppable target model over shared weights. Immutable after
 * construction: every decode operation is const and advances the
 * SequenceState it is given, so one model serves any number of
 * sequences, on any number of threads, each with its own state.
 *
 * Not copyable: one model serves all of its sequences, so it is
 * shared by reference, never duplicated.
 */
class TargetModel
{
  public:
    /**
     * @param weights  the weight set to run on, in any backend pair
     *                 (engines share one across models); null builds
     *                 a private dense set
     */
    TargetModel(const ModelConfig &cfg, const TargetModelOptions &opts,
                std::shared_ptr<const Weights> weights = nullptr);

    TargetModel(const TargetModel &) = delete;
    TargetModel &operator=(const TargetModel &) = delete;

    const ModelConfig &config() const { return cfg_; }
    const Weights &weights() const { return *weights_; }
    const LmHead &lmHead() const { return lmHead_; }
    int nLayers() const { return cfg_.n_layers; }

    /**
     * Fresh per-sequence state over `kv`; null uses makeSequenceKv().
     * The serving layer passes a view onto its shared fleet pool.
     */
    SequenceState makeSequence(std::unique_ptr<KvStore> kv = nullptr) const;

    /**
     * Private KV for one sequence: a SequenceKv over its own paged
     * pool sized for a full context. Block storage is allocated on
     * first use, so an unused pool costs only its block tables.
     */
    std::unique_ptr<SequenceKv> makeSequenceKv() const;

    /**
     * Clear KV, position and steering-noise state of `s`.
     * `noise_stream` selects an independent noise substream (e.g.
     * per instance), so the decode of a sequence is a pure function
     * of (options, noise_stream, scripts) — the re-entrancy the
     * serving layer relies on.
     */
    void reset(SequenceState &s, uint64_t noise_stream = 0) const;

    /**
     * Fast prompt ingestion: fills every layer's KV from the token
     * embeddings without full layer compute. Prompt hidden fidelity
     * only matters through attention texture, and decode-time costs
     * are charged by the cost model at the true prompt length. K/V
     * are projected four tokens at a time (DecoderLayer::projectKv)
     * and appended token by token, every layer per token.
     */
    void prefill(SequenceState &s, const std::vector<int> &tokens) const;

    /** Begin a decode step of `s` for `input_token` under `script`. */
    void beginToken(SequenceState &s, int input_token,
                    const TokenScript &script) const;

    /**
     * Decode a block of scripted tokens of `s` layer by layer: token
     * t enters as inputs[t] under scripts[t] at position s.pos + t.
     * Every token's steering noise is drawn first, in token order, as
     * beginToken() draws it. A team of `team` threads (0 takes one
     * per hardware thread, at most one per token) splits the tokens
     * into contiguous runs, and each member runs every layer over
     * its run as one DecoderLayer block, so each weight row is read
     * once per four tokens. The members meet at a barrier after each
     * layer's projection phase, and the calling thread appends that
     * layer's K/V for every token, in token order, before any member
     * attends; so the store grows layer by layer as under sequential
     * decode, and only the caller allocates in it.
     *
     * Row t * (nLayers() - 1) + l of `hiddens` (row-major, hidden
     * wide) receives token t's steered output of exit layer l,
     * every layer but the last. The hidden states and KV rows equal
     * those of beginToken() and runLayer() per token bit for bit,
     * whatever the team size. No LM head runs. `s` ends past the
     * block with the last token's state current.
     */
    void decodeScripted(SequenceState &s, const std::vector<int> &inputs,
                        const std::vector<TokenScript> &scripts,
                        tensor::Span hiddens, size_t team = 0) const;

    /**
     * Run layer s.layer of the current token (attention + FFN +
     * steering); returns the steered hidden state after it.
     */
    tensor::CSpan runLayer(SequenceState &s) const;

    /** Run all remaining layers; returns the final argmax token. */
    int runRemainingLayers(SequenceState &s) const;

    /**
     * Finish the current token after an early exit: fills KV for all
     * layers that were skipped from the current hidden state so later
     * tokens can attend to this position (AdaInfer-style state
     * propagation; the cost model charges the two projections).
     *
     * @return number of layers whose KV was filled
     */
    int finishEarly(SequenceState &s) const;

  private:
    /** Assert that `s` was made for a model of this shape. */
    void checkShape(const SequenceState &s) const;

    /**
     * Start `ts` as a token entering as `input_token` under
     * `script`, drawing its steering noise from `noise`.
     */
    void beginSteer(TokenSteer &ts, int input_token,
                    const TokenScript &script, Rng &noise) const;

    /** Steer `hidden`, the raw layer output of token `ts`. */
    void steer(const TokenSteer &ts, tensor::Span hidden,
               int layer_just_run) const;

    ModelConfig cfg_;
    TargetModelOptions opts_;
    std::shared_ptr<const Weights> weights_;
    LmHead lmHead_;
};

} // namespace specee::model

#endif // SPECEE_MODEL_TARGET_MODEL_HH
