#include "engines/engine.hh"

#include <algorithm>
#include <cmath>

#include "core/features.hh"
#include "core/online_scheduler.hh"
#include "engines/decode_session.hh"
#include "hw/memory_tracker.hh"
#include "oracle/profiles.hh"
#include "tensor/kernels.hh"
#include "util/logging.hh"

namespace specee::engines {

namespace {
constexpr double kFp16 = 2.0;
} // namespace

Engine::Engine(const EngineConfig &ecfg, const model::ModelConfig &mcfg,
               const hw::HardwareSpec &spec,
               const oracle::SyntheticCorpus &corpus,
               std::shared_ptr<const model::Weights> weights)
    : ecfg_(ecfg), mcfg_(mcfg), hwspec_(spec),
      stages_(mcfg.n_layers, ecfg.pp), corpus_(corpus)
{
    specee_assert(ecfg.tp >= 1, "tp must be >= 1, got %d", ecfg.tp);
    if (ecfg.tp > 1 || ecfg.pp > 1) {
        // Stage-level sharding composes tp x pp single-device specs;
        // the legacy monolithic multi-GPU presets (a100x4's
        // n_devices / sync_us_per_layer) model the whole node in one
        // spec and would double-count collectives.
        specee_assert(spec.n_devices == 1,
                      "tp/pp sharding cannot combine with the "
                      "monolithic multi-device preset %s",
                      spec.name.c_str());
        specee_assert(spec.interconnect_gbs > 0.0,
                      "tp/pp sharding on platform %s, which has no "
                      "peer link (interconnect_gbs = 0)",
                      spec.name.c_str());
        specee_assert(!ecfg.allow_offload,
                      "tp/pp sharding cannot combine with host "
                      "weight offload");
    }
    if (weights == nullptr) {
        weights = std::make_shared<const model::Weights>(
            mcfg, ecfg.projBackend(), ecfg.headBackend());
    }
    specee_assert(weights->projBackend() == ecfg.projBackend() &&
                      weights->headBackend() == ecfg.headBackend(),
                  "shared weights do not match the weight format of %s",
                  ecfg.name.c_str());
    model::TargetModelOptions opts;
    opts.sparse_ffn = ecfg.sparse_ffn;
    opts.ffn_active_frac = ecfg.ffn_active_frac;
    opts.noise_seed = mcfg.weight_seed ^ 0xa0153;
    tm_ = std::make_unique<model::TargetModel>(mcfg, opts,
                                               std::move(weights));

    // Device/host weight split (PC scenario): weights that do not fit
    // in usable VRAM are served from host memory.
    devWeightFrac_ = 1.0;
    if (ecfg.allow_offload && spec.host_bw_gbs > 0.0) {
        const double weight_gb =
            mcfg.truthWeightBytes() *
            tensor::weightCompression(ecfg.projBackend()) / 1e9;
        // Reserve room for KV cache and activations. The draft model
        // shares this workspace (it replaces activation scratch while
        // drafting), so it does not displace additional layers.
        const double reserve_gb = 1.0;
        const double usable = std::max(0.5, spec.vram_gb * 0.92 -
                                                reserve_gb);
        // PowerInfer keeps the hot (frequently active) weights on the
        // GPU, so its effective device fraction is high even when the
        // full model does not fit.
        if (ecfg.sparse_ffn) {
            devWeightFrac_ = std::min(1.0, usable / (weight_gb * 0.55));
        } else {
            devWeightFrac_ = std::min(1.0, usable / weight_gb);
        }
    }
    // Tensor parallelism splits every stage's weight/KV stream and
    // GEMM across tp concurrently-running devices: time divides by
    // tp while per-class power multiplies by tp (tp boards drawing
    // together), so modeled energy is conserved. The per-layer
    // all-reduce traffic this buys is charged at the call sites over
    // the interconnect. tp = 1 leaves the spec bit-identical.
    hw::HardwareSpec priced = spec;
    if (ecfg.tp > 1) {
        const double t = static_cast<double>(ecfg.tp);
        priced.mem_bw_gbs *= t;
        priced.compute_tflops *= t;
        priced.swap_bw_gbs *= t; // per-device PCIe, KV sharded too
        priced.tdp_w *= t;
        for (double &p : priced.power_w)
            p *= t;
    }
    cost_ = std::make_unique<hw::CostModel>(
        priced, ecfg.bw_efficiency, devWeightFrac_, ecfg.projBackend(),
        ecfg.headBackend());
}

void
Engine::setPredictors(const core::ExitPredictor *preds)
{
    preds_ = preds;
}

void
Engine::setAdaInferBank(const AdaInferBank *bank)
{
    ada_ = bank;
}

void
Engine::setRaeeIndex(const core::RaeeIndex *index)
{
    raee_ = index;
}

void
Engine::setOfflineHotLayers(std::vector<int> layers)
{
    offlineHotMask_.assign(static_cast<size_t>(nExitLayers()), false);
    for (int l : layers) {
        specee_assert(l >= 0 && l < nExitLayers(),
                      "offline hot layer %d out of range", l);
        offlineHotMask_[static_cast<size_t>(l)] = true;
    }
}

// ---------------------------------------------------------------------------
// Cost emission (true dimensions)
// ---------------------------------------------------------------------------

double
Engine::layerWeightBytes(bool ffn_sparse) const
{
    // fp16-equivalent traffic; hw::CostModel applies the projection
    // backend's compression.
    const double h = mcfg_.truth.hidden;
    const double f = mcfg_.truth.ffn;
    const double attn = 4.0 * h * h * kFp16;
    double ffn = 3.0 * h * f * kFp16;
    if (ffn_sparse)
        ffn *= ecfg_.ffn_active_frac;
    return attn + ffn;
}

void
Engine::chargeLayers(hw::OpLog &log, int n_layers, int batch,
                     int logical_pos) const
{
    if (n_layers <= 0)
        return;
    const double h = mcfg_.truth.hidden;
    const double wbytes = layerWeightBytes(ecfg_.sparse_ffn) * n_layers;
    const double params = layerWeightBytes(false) / kFp16;
    const double flops = 2.0 * params * n_layers * batch;
    // Each layer is ~10 fused kernels on a modern runtime.
    cost_->account(log, hw::OpClass::DecoderLayer, flops, wbytes,
                   /*act_bytes=*/2.0 * h * kFp16 * batch * n_layers,
                   /*kernels=*/10 * n_layers);

    // KV traffic: read all cached positions per layer, write one.
    const double kv_read =
        2.0 * h * kFp16 * static_cast<double>(logical_pos) * n_layers *
        batch;
    cost_->account(log, hw::OpClass::KvRead,
                   2.0 * h * logical_pos * n_layers * batch, 0.0, kv_read,
                   n_layers);

    if (hwspec_.sync_us_per_layer > 0.0) {
        cost_->accountFixed(log, hw::OpClass::Sync,
                            hwspec_.sync_us_per_layer * 1e-6 * n_layers);
    }
    chargeTpAllReduce(log, n_layers, batch);
    chargePpHandoff(log, n_layers, batch);
}

void
Engine::chargeTpAllReduce(hw::OpLog &log, int n_layers,
                          double tokens) const
{
    if (ecfg_.tp <= 1 || n_layers <= 0)
        return;
    const double t = static_cast<double>(ecfg_.tp);
    const double h = mcfg_.truth.hidden;
    // Ring all-reduce moves 2(t-1)/t of the payload per collective;
    // two collectives per layer (post-attention, post-FFN).
    const double ring = 2.0 * (t - 1.0) / t * h * kFp16 * tokens;
    cost_->accountInterconnect(log, hw::OpClass::TpAllReduce,
                               2.0 * ring * n_layers, 2 * n_layers);
}

void
Engine::chargePpHandoff(hw::OpLog &log, int layers_used,
                        double tokens) const
{
    const int crossings = stages_.handoffs(layers_used);
    if (crossings <= 0)
        return;
    const double h = mcfg_.truth.hidden;
    cost_->accountInterconnect(log, hw::OpClass::PpHandoff,
                               h * kFp16 * tokens * crossings,
                               crossings);
}

void
Engine::chargeKvFill(hw::OpLog &log, int n_layers, int batch) const
{
    if (n_layers <= 0)
        return;
    const double h = mcfg_.truth.hidden;
    const double wbytes = 2.0 * h * h * kFp16 * n_layers;
    cost_->account(log, hw::OpClass::KvFill,
                   2.0 * 2.0 * h * h * n_layers * batch, wbytes,
                   2.0 * h * kFp16 * batch * n_layers, 2 * n_layers);
    // Under tensor parallelism the skipped layers still cross one
    // synchronization boundary each for the sharded k/v state.
    if (hwspec_.sync_us_per_layer > 0.0) {
        cost_->accountFixed(log, hw::OpClass::Sync,
                            0.5 * hwspec_.sync_us_per_layer * 1e-6 *
                                n_layers);
    }
}

void
Engine::chargeLmHeadFull(hw::OpLog &log, int batch) const
{
    // Compressed by the cost model at the head backend.
    const double bytes = mcfg_.truthLmHeadBytes();
    const double flops =
        2.0 * mcfg_.truth.hidden * mcfg_.truth.vocab * batch;
    cost_->account(log, hw::OpClass::LmHeadFull, flops, bytes, 0.0, 1);
}

void
Engine::chargeLmHeadSliced(hw::OpLog &log, int groups, int layer_events) const
{
    // Sliced rows are per-request (non-amortizable) traffic, so they
    // are charged as activation bytes — compressed here rather than
    // by the cost model's weight term.
    const int k = mcfg_.num_spec_tokens;
    const double bytes = static_cast<double>(mcfg_.truth.hidden) * k *
                         kFp16 * groups * cost_->headCompression();
    const double flops = 2.0 * mcfg_.truth.hidden * k * groups;
    // Feature extraction is a short kernel pipeline (sliced GEMV,
    // softmax, delta) issued once per activated layer regardless of
    // the number of hyper-token groups (Fig. 13's grouped GEMM).
    cost_->account(log, hw::OpClass::LmHeadSliced, flops, 0.0, bytes,
                   6 * layer_events);
}

void
Engine::chargePredictor(hw::OpLog &log, int batch, int layer_events) const
{
    const double params =
        preds_ != nullptr ? static_cast<double>(
                                preds_->paramsPerPredictor())
                          : 12.0 * 512 + 512;
    // Two linear layers + activations + threshold: ~8 launches per
    // activated layer. Together with feature extraction this prices a
    // predictor invocation at ~90us on A100, matching §7.4.4's
    // 0.9 ms/token over ~10 active predictors. Predictor MLPs stay
    // fp32 and device-resident regardless of the weight backend, so
    // their parameter reads are charged as activation traffic (no
    // backend compression, no offload split).
    cost_->account(log, hw::OpClass::Predictor, 2.0 * params * batch,
                   0.0, params * 4.0 + 64.0 * batch, 8 * layer_events);
    // Hybrid runtimes stall their GPU graph per host-side check.
    if (hwspec_.predictor_stall_us > 0.0) {
        cost_->accountFixed(log, hw::OpClass::Predictor,
                            hwspec_.predictor_stall_us * 1e-6 *
                                layer_events);
    }
}

void
Engine::chargeDraft(hw::OpLog &log, int forwards) const
{
    // §5.1: one draft forward costs about one decoder layer; the DLM
    // reuses the resident embedding/LM head, so we charge 1.2x a
    // layer's weight traffic per forward. The DLM ships in the head
    // backend (cost-model compression; fp16 under AWQ).
    const double bytes =
        layerWeightBytes(false) * model::DraftModel::layerEquivalents();
    const double flops = bytes; // memory-bound either way
    for (int i = 0; i < forwards; ++i) {
        cost_->account(log, hw::OpClass::Draft, flops, bytes, 0.0, 12);
    }
}

void
Engine::chargeEmbed(hw::OpLog &log, int n) const
{
    // Embedding rows are weight-table reads (batch-amortizable in the
    // serving layer and compressed under a quantized backend).
    const double bytes =
        static_cast<double>(mcfg_.truth.hidden) * kFp16 * n;
    cost_->account(log, hw::OpClass::Embed, 0.0, bytes, 0.0, 1);
}

void
Engine::chargePrefillChunk(hw::OpLog &log, int n_tokens,
                           int past_len) const
{
    if (n_tokens <= 0)
        return;
    const int L = mcfg_.n_layers;
    const double h = mcfg_.truth.hidden;
    const double nt = static_cast<double>(n_tokens);

    // One full-depth weight stream per chunk, regardless of chunk
    // length — the roofline's memory leg, shared with decode peers.
    const double wbytes = layerWeightBytes(ecfg_.sparse_ffn) * L;
    cost_->account(log, hw::OpClass::PrefillWeights, 0.0, wbytes, 0.0,
                   10 * L);

    // Chunk-scaled compute leg: projection/FFN GEMMs over n_tokens
    // per layer, plus causal attention where token i of the chunk
    // attends to past_len + i + 1 cached positions.
    const double params = layerWeightBytes(false) / kFp16;
    const double attended =
        nt * static_cast<double>(past_len) + 0.5 * nt * (nt + 1.0);
    const double flops =
        (2.0 * params * nt + 2.0 * h * attended) * L;
    const double act_bytes =
        (2.0 * h * kFp16 * nt          // residual stream in/out
         + 2.0 * h * kFp16 * attended  // k/v reads of attention
         + 2.0 * h * kFp16 * nt) *     // k/v writes of the chunk
        L;
    cost_->account(log, hw::OpClass::PrefillCompute, flops, 0.0,
                   act_bytes, 2 * L);

    if (hwspec_.sync_us_per_layer > 0.0) {
        cost_->accountFixed(log, hw::OpClass::Sync,
                            hwspec_.sync_us_per_layer * 1e-6 * L);
    }
    chargeTpAllReduce(log, L, nt);
    chargePpHandoff(log, L, nt);
}

double
Engine::kvSwapSeconds(long positions) const
{
    if (positions <= 0)
        return 0.0;
    // One DMA per layer moves that layer's block range; the bytes
    // are the true-dims KV of every cached position.
    return cost_->swapSeconds(mcfg_.truthKvBytesPerToken() *
                                  static_cast<double>(positions),
                              mcfg_.n_layers);
}

double
Engine::chargeKvSwap(hw::OpLog &log, hw::OpClass cls,
                     long positions) const
{
    if (positions <= 0)
        return 0.0;
    return cost_->accountSwap(log, cls,
                              mcfg_.truthKvBytesPerToken() *
                                  static_cast<double>(positions),
                              mcfg_.n_layers);
}

double
Engine::chargeKvHandoff(hw::OpLog &log, long positions) const
{
    if (positions <= 0)
        return 0.0;
    // Like the swap DMAs, one copy-engine stream per layer moves that
    // layer's block chain — but over the peer link, decode-device
    // bound, at the true-dims KV bytes of every cached position.
    return cost_->accountInterconnect(
        log, hw::OpClass::KvHandoff,
        mcfg_.truthKvBytesPerToken() * static_cast<double>(positions),
        mcfg_.n_layers);
}

void
Engine::chargeOverhead(hw::OpLog &log) const
{
    if (ecfg_.fixed_overhead_s > 0.0) {
        cost_->accountFixed(log, hw::OpClass::Overhead,
                            ecfg_.fixed_overhead_s);
    }
}

void
Engine::chargeToken(hw::OpLog &log, const TokenOutcome &o,
                    int logical_pos) const
{
    if (o.drafted)
        chargeDraft(log, 1);
    chargeEmbed(log, 1);
    if (o.raee_probe) {
        // Retrieval: ANN probe over the database, priced at the true
        // entry count and hidden width (Table 1's High-memory /
        // Heavy-prediction row).
        const double scan_bytes = core::kRaeeDbEntries *
                                  core::kRaeeScanFrac *
                                  mcfg_.truth.hidden * 2.0;
        cost_->account(log, hw::OpClass::Predictor, scan_bytes,
                       scan_bytes, 0.0, 24);
    }
    for (int i = 0; i < o.sliced_reads; ++i)
        chargeLmHeadSliced(log, 1, 1);
    for (int i = 0; i < o.predictor_checks; ++i)
        chargePredictor(log, 1, 1);
    for (int i = 0; i < o.head_reads; ++i)
        chargeLmHeadFull(log, 1);
    // The KV fill's Sync share precedes the layers' (OpLog sums each
    // class in charge order).
    chargeKvFill(log, o.fill_layers, 1);
    chargeLayers(log, o.layers_used, 1, logical_pos);
    chargeOverhead(log);
}

// ---------------------------------------------------------------------------
// Exit policies and token decoding
// ---------------------------------------------------------------------------

/** SpecEE (§4.3): predictor, then verification against the head. */
class Engine::SpecEEExit final : public ExitPolicy
{
  public:
    SpecEEExit(const Engine &eng, const model::DraftModel &dlm, Rng &rng)
        : eng_(eng), dlm_(dlm), rng_(rng),
          fx_(eng.mcfg_.num_spec_tokens),
          online_(eng.nExitLayers(), eng.ecfg_.online_window,
                  eng.ecfg_.online_radius),
          threshold_(eng.ecfg_.exit_threshold)
    {
    }

    void
    beginToken(int input_token, const model::TokenScript &script,
               TokenOutcome &out) override
    {
        spec_ = dlm_.speculate(input_token, script.target,
                               eng_.mcfg_.num_spec_tokens, rng_);
        fx_.beginToken(spec_);
        out.drafted = true;
    }

    std::optional<int>
    onLayer(int layer, tensor::CSpan hidden, TokenOutcome &out) override
    {
        if (!predictorActive(layer))
            return std::nullopt;
        ++out.predictor_checks;
        ++out.sliced_reads;
        const model::LmHead &head = eng_.tm_->lmHead();
        tensor::CSpan feats = fx_.extract(head, hidden);
        if (!eng_.preds_->shouldExit(layer, feats, threshold_))
            return std::nullopt;
        // Verification (§4.3.3, Fig. 5): exit only when the local
        // result T', the speculated token with the highest sliced
        // logit, is the global result T, the full head's argmax at
        // this layer. A reject usually stops after a few head rows.
        ++out.verify_calls;
        ++out.head_reads;
        const int local = spec_[tensor::argmax(fx_.localProbs())];
        if (!head.isArgmax(hidden, local)) {
            ++out.verify_rejects;
            return std::nullopt;
        }
        if (eng_.ecfg_.online_sched)
            online_.recordExit(layer);
        return local;
    }

    void setExitThreshold(float t) override { threshold_ = t; }

  private:
    /** True when a predictor is active at `layer` for this token. */
    bool
    predictorActive(int layer) const
    {
        const EngineConfig &c = eng_.ecfg_;
        if (!c.fixed_predictor_layers.empty()) {
            return std::ranges::find(c.fixed_predictor_layers, layer) !=
                   c.fixed_predictor_layers.end();
        }
        const bool use_off =
            c.offline_sched && !eng_.offlineHotMask_.empty();
        if (use_off && eng_.offlineHotMask_[static_cast<size_t>(layer)])
            return true;
        if (!c.online_sched)
            return !use_off; // T1 only: every layer hosts a predictor
        // Cold start: with no exit history (and no offline set to
        // bootstrap from) every layer stays active until the first
        // exits populate the context window.
        return (online_.filled() == 0 && !use_off) ||
               online_.isActive(layer);
    }

    const Engine &eng_;
    const model::DraftModel &dlm_;
    Rng &rng_;
    core::FeatureExtractor fx_;
    core::OnlineScheduler online_;
    float threshold_;
    std::vector<int> spec_; ///< this token's speculated tokens
};

/** AdaInfer: full head + SVM per layer; exits after `patience`. */
class Engine::AdaInferExit final : public ExitPolicy
{
  public:
    explicit AdaInferExit(const Engine &eng)
        : eng_(eng),
          // Patience scales with model depth (4 at 32 layers).
          patience_(std::min(eng.ada_->patience,
                             std::max(1, eng.mcfg_.n_layers / 8))),
          logits_(static_cast<size_t>(eng.mcfg_.sim.vocab))
    {
    }

    void
    beginToken(int, const model::TokenScript &, TokenOutcome &) override
    {
        streak_ = 0;
    }

    std::optional<int>
    onLayer(int layer, tensor::CSpan hidden, TokenOutcome &out) override
    {
        ++out.predictor_checks;
        ++out.head_reads;
        eng_.tm_->lmHead().full(hidden, logits_);
        const auto af = core::adaInferFeatures(logits_);
        const bool positive =
            eng_.ada_->shouldExit(layer, tensor::CSpan(af.data(), af.size()));
        streak_ = positive ? streak_ + 1 : 0;
        if (streak_ < patience_)
            return std::nullopt;
        return static_cast<int>(tensor::argmax(logits_));
    }

  private:
    const Engine &eng_;
    const int patience_;
    tensor::Vec logits_;
    int streak_ = 0; ///< consecutive positive SVM decisions
};

/** RAEE: a retrieval probe at layer 0 picks the exit layer. */
class Engine::RaeeExit final : public ExitPolicy
{
  public:
    explicit RaeeExit(const Engine &eng) : eng_(eng) {}

    std::optional<int>
    onLayer(int layer, tensor::CSpan hidden, TokenOutcome &out) override
    {
        if (layer == 0) {
            out.raee_probe = true;
            exitLayer_ = eng_.raee_->predictExitLayer(hidden, core::kRaeeK);
        }
        if (layer != exitLayer_)
            return std::nullopt;
        ++out.head_reads;
        return eng_.tm_->lmHead().argmaxToken(hidden);
    }

  private:
    const Engine &eng_;
    int exitLayer_ = -1; ///< this token's retrieved exit layer
};

std::unique_ptr<ExitPolicy>
Engine::makeExitPolicy(const model::DraftModel &dlm, Rng &rng) const
{
    switch (ecfg_.exit) {
    case ExitMode::None:
        return nullptr;
    case ExitMode::SpecEE:
        specee_assert(preds_ != nullptr,
                      "early exit requires trained predictors");
        return std::make_unique<SpecEEExit>(*this, dlm, rng);
    case ExitMode::AdaInfer:
        specee_assert(ada_ != nullptr && !ada_->empty(),
                      "AdaInfer engine requires a trained SVM bank");
        return std::make_unique<AdaInferExit>(*this);
    case ExitMode::Raee:
        specee_assert(raee_ != nullptr && !raee_->empty(),
                      "RAEE engine requires a retrieval index");
        return std::make_unique<RaeeExit>(*this);
    }
    specee_panic("bad exit mode %d", static_cast<int>(ecfg_.exit));
}

TokenOutcome
Engine::decodeToken(model::SequenceState &seq, int input_token,
                    const model::TokenScript &script,
                    ExitPolicy *policy) const
{
    TokenOutcome out;
    if (policy != nullptr)
        policy->beginToken(input_token, script, out);
    tm_->beginToken(seq, input_token, script);
    // The last layer hosts no exit: runRemainingLayers finishes it.
    while (policy != nullptr && seq.layer < nExitLayers()) {
        const int l = seq.layer;
        const tensor::CSpan hidden = tm_->runLayer(seq);
        if (const std::optional<int> tok = policy->onLayer(l, hidden, out)) {
            out.token = *tok;
            out.exit_layer = l;
            out.layers_used = l + 1;
            out.fill_layers = tm_->finishEarly(seq);
            return out;
        }
    }
    out.token = tm_->runRemainingLayers(seq);
    out.layers_used = mcfg_.n_layers;
    ++out.head_reads;
    return out;
}

// ---------------------------------------------------------------------------
// Run paths
// ---------------------------------------------------------------------------

void
Engine::finalizeRun(RunResult &out, const workload::Workload &w,
                    long total_committed) const
{
    if (out.stats.passes > 0) {
        out.stats.avg_commit_per_pass =
            static_cast<double>(total_committed) /
            static_cast<double>(out.stats.passes);
    }

    RunStats &st = out.stats;
    if (st.tokens > 0) {
        st.avg_forward_layers /= static_cast<double>(st.tokens);
        st.avg_active_predictors /= static_cast<double>(st.tokens);
    }
    const auto grand = st.oplog.grand();
    st.modeled_time_s = grand.time_s;
    st.tokens_per_s =
        st.modeled_time_s > 0.0
            ? static_cast<double>(st.tokens) / st.modeled_time_s
            : 0.0;
    st.avg_power_w = st.oplog.avgPowerW();
    st.energy_per_token_j =
        st.tokens > 0 ? grand.energy_j / static_cast<double>(st.tokens)
                      : 0.0;

    const hw::MemoryTracker mem = makeMemoryTracker();
    const int max_tokens =
        w.true_prompt_len +
        (w.instances.empty()
             ? 0
             : static_cast<int>(w.instances.front().steps.size()));
    st.peak_mem_gb = hw::MemoryTracker::toGiB(mem.totalBytes(max_tokens));
}

hw::MemoryTracker
Engine::makeMemoryTracker() const
{
    const bool specee = ecfg_.exit == ExitMode::SpecEE;
    const bool with_dlm = specee || ecfg_.spec_decode;
    const int n_preds =
        specee && preds_ != nullptr ? preds_->nExitLayers() : 0;
    const size_t pred_params =
        preds_ != nullptr ? preds_->paramsPerPredictor() : 0;
    // The DLM ships in the head backend (matches chargeDraft).
    return hw::MemoryTracker(mcfg_, ecfg_.projBackend(),
                             ecfg_.headBackend(), with_dlm, n_preds,
                             pred_params);
}

Engine::RunStart::RunStart(const Engine &eng, const workload::Workload &w,
                           uint64_t seed)
    : dlm(eng.mcfg_, eng.corpus_,
          eng.ecfg_.draft_hit_override >= 0.0
              ? eng.ecfg_.draft_hit_override
              : oracle::profileByName(w.dataset).draft_hit_rate),
      rng(seed ^ eng.mcfg_.weight_seed)
{
    out.stats.engine = eng.ecfg_.name;
    out.stats.dataset = w.dataset;
    out.stats.model = eng.mcfg_.name;
    out.stats.platform = eng.hwspec_.name;
    out.stats.exit_histogram.assign(
        static_cast<size_t>(eng.nExitLayers()), 0);
}

RunResult
Engine::run(const workload::Workload &w, uint64_t seed) const
{
    specee_assert(!w.instances.empty(), "empty workload");

    RunStart rs(*this, w, seed);
    long total_committed = 0;
    for (size_t i = 0; i < w.instances.size(); ++i) {
        DecodeSession session(*this, w, i, rs.dlm, rs.out, rs.rng);
        session.prefill();
        while (session.step()) {
        }
        total_committed += session.committed();
        session.finishEmission();
    }
    finalizeRun(rs.out, w, total_committed);
    return std::move(rs.out);
}

std::unique_ptr<DecodeSession>
Engine::makeSession(const workload::Workload &w, uint64_t seed,
                    std::unique_ptr<model::SequenceKv> kv) const
{
    return std::make_unique<DecodeSession>(*this, w, seed,
                                           std::move(kv));
}

RunResult
Engine::runOne(const workload::Workload &w, size_t instance,
               uint64_t seed) const
{
    return run(w.slice(instance), seed);
}

} // namespace specee::engines
