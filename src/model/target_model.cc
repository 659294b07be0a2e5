#include "model/target_model.hh"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace specee::model {

namespace {

/**
 * Prompt tokens prefilled per block: each layer's K and V projections
 * run over the block as one batched GEMV, which reads a weight row
 * once per four vectors. The block's K/V rows for every layer are
 * held until it is appended, so a larger block costs memory.
 */
constexpr size_t kPrefillBlock = 4;

/** Normalize v to unit L2 norm (no-op on zero vectors). */
void
unitize(tensor::Span v)
{
    const float n = tensor::norm2(v);
    if (n > 0.0f)
        tensor::scaleInplace(v, 1.0f / n);
}

/** The weight set a model runs on: `shared`, or a private dense one. */
std::shared_ptr<const Weights>
weightsFor(const ModelConfig &cfg, std::shared_ptr<const Weights> shared)
{
    if (shared == nullptr) {
        return std::make_shared<const Weights>(
            cfg, tensor::WeightBackend::Fp32, tensor::WeightBackend::Fp32);
    }
    specee_assert(shared->nLayers() == cfg.n_layers,
                  "shared weights do not match the model config");
    return shared;
}

} // namespace

TargetModel::TargetModel(const ModelConfig &cfg,
                         const TargetModelOptions &opts,
                         std::shared_ptr<const Weights> weights)
    : cfg_(cfg),
      opts_(opts),
      weights_(weightsFor(cfg, std::move(weights))),
      lmHead_(weights_->embedding(), weights_->rmsFinal())
{
}

std::unique_ptr<SequenceKv>
TargetModel::makeSequenceKv() const
{
    const int blocks =
        cfg_.n_layers * (cfg_.context_len / kKvBlockSize + 2);
    return std::make_unique<SequenceKv>(std::make_shared<PagedKvCache>(
        cfg_.n_layers, blocks, cfg_.sim.hidden));
}

SequenceState
TargetModel::makeSequence(std::unique_ptr<KvStore> kv) const
{
    SequenceState s;
    s.kv = kv ? std::move(kv) : makeSequenceKv();
    s.noiseRng = Rng(opts_.noise_seed);
    s.tok.hidden.resize(static_cast<size_t>(cfg_.sim.hidden));
    s.scratch = DecoderLayer(cfg_);
    return s;
}

void
TargetModel::checkShape(const SequenceState &s) const
{
    specee_assert(s.kv != nullptr &&
                      s.tok.hidden.size() ==
                          static_cast<size_t>(cfg_.sim.hidden),
                  "sequence state does not match the model");
}

void
TargetModel::reset(SequenceState &s, uint64_t noise_stream) const
{
    checkShape(s);
    s.kv->clear();
    s.pos = 0;
    s.layer = 0;
    s.inToken = false;
    // Reseed the steering-noise stream so a sequence's decode depends
    // only on (noise_seed, noise_stream), never on what the model ran
    // before — per-request execution must be re-entrant for serving.
    s.noiseRng = Rng(opts_.noise_seed ^ noise_stream);
}

void
TargetModel::prefill(SequenceState &s, const std::vector<int> &tokens) const
{
    checkShape(s);
    specee_assert(!s.inToken, "prefill during a decode step");
    for (int tok : tokens) {
        specee_assert(tok >= 0 && tok < cfg_.sim.vocab,
                      "prompt token %d out of range", tok);
    }
    const size_t n_tok = tokens.size();
    if (n_tok == 0)
        return;
    // Each token's K/V at every layer comes from its own embedding.
    // The block's rows of every layer are held until it is appended,
    // token by token, every layer per token.
    const auto h = static_cast<size_t>(cfg_.sim.hidden);
    const auto n_layers = static_cast<size_t>(cfg_.n_layers);
    const size_t cap = std::min(n_tok, kPrefillBlock);
    DecoderLayer layer(cfg_, cap);
    tensor::Matrix emb(cap, h), k(n_layers * cap, h), v(n_layers * cap, h);
    for (size_t t0 = 0; t0 < n_tok; t0 += cap) {
        const size_t m = std::min(cap, n_tok - t0);
        for (size_t t = 0; t < m; ++t) {
            weights_->embedding().copyRow(
                static_cast<size_t>(tokens[t0 + t]), emb.row(t));
        }
        const tensor::CSpan x(emb.row(0).data(), m * h);
        for (size_t l = 0; l < n_layers; ++l) {
            layer.projectKv(weights_->layer(static_cast<int>(l)), x, s.pos);
            for (size_t t = 0; t < m; ++t) {
                std::ranges::copy(layer.k(t), k.row(l * cap + t).begin());
                std::ranges::copy(layer.v(t), v.row(l * cap + t).begin());
            }
        }
        for (size_t t = 0; t < m; ++t) {
            for (size_t l = 0; l < n_layers; ++l) {
                s.kv->append(static_cast<int>(l), k.row(l * cap + t),
                             v.row(l * cap + t));
            }
        }
        s.pos += static_cast<int>(m);
    }
}

void
TargetModel::beginSteer(TokenSteer &ts, int input_token,
                        const TokenScript &script, Rng &noise) const
{
    specee_assert(input_token >= 0 && input_token < cfg_.sim.vocab,
                  "input token out of range");
    specee_assert(script.target >= 0 && script.target < cfg_.sim.vocab &&
                  script.distractor >= 0 &&
                  script.distractor < cfg_.sim.vocab,
                  "script token out of range");
    const auto h = static_cast<size_t>(cfg_.sim.hidden);
    ts.script = script;
    ts.hidden.resize(h);
    ts.dirTarget.resize(h);
    ts.dirDistractor.resize(h);

    // Residual stream starts at the input embedding.
    weights_->embedding().copyRow(static_cast<size_t>(input_token),
                                  ts.hidden);

    // Per-token noisy target direction: dir = unit(E[target] + nu*z).
    weights_->embedding().copyRow(static_cast<size_t>(script.target),
                                  ts.dirTarget);
    const float nu = opts_.steer.target_noise;
    const float per_dim = nu / std::sqrt(static_cast<float>(h));
    for (size_t i = 0; i < h; ++i)
        ts.dirTarget[i] += static_cast<float>(noise.normal(0.0, per_dim));
    unitize(ts.dirTarget);

    weights_->embedding().copyRow(static_cast<size_t>(script.distractor),
                                  ts.dirDistractor);

    const float j = opts_.steer.distractor_jitter;
    ts.distractorScale = static_cast<float>(noise.uniform(1.0 - j, 1.0 + j));
}

void
TargetModel::beginToken(SequenceState &s, int input_token,
                        const TokenScript &script) const
{
    checkShape(s);
    specee_assert(!s.inToken, "beginToken during a decode step");
    beginSteer(s.tok, input_token, script, s.noiseRng);
    s.layer = 0;
    s.inToken = true;
}

void
TargetModel::decodeScripted(SequenceState &s,
                            const std::vector<int> &inputs,
                            const std::vector<TokenScript> &scripts,
                            tensor::Span hiddens, size_t team) const
{
    checkShape(s);
    const size_t n_tok = inputs.size();
    const auto h = static_cast<size_t>(cfg_.sim.hidden);
    const auto n_exit = static_cast<size_t>(cfg_.n_layers - 1);
    specee_assert(!s.inToken, "decodeScripted during a decode step");
    specee_assert(scripts.size() == n_tok,
                  "decodeScripted: %zu inputs, %zu scripts", n_tok,
                  scripts.size());
    specee_assert(hiddens.size() == n_tok * n_exit * h,
                  "decodeScripted: %zu hidden floats for %zu tokens",
                  hiddens.size(), n_tok);
    if (n_tok == 0)
        return;

    // Everything the team touches is allocated here, on the calling
    // thread: the block's residual rows, and per member a layer over
    // its contiguous run of tokens [runStart(m), runStart(m + 1)).
    std::vector<TokenSteer> block(n_tok);
    tensor::Matrix hidden(n_tok, h);
    for (size_t t = 0; t < n_tok; ++t) {
        beginSteer(block[t], inputs[t], scripts[t], s.noiseRng);
        std::ranges::copy(block[t].hidden, hidden.row(t).begin());
    }
    const size_t members =
        std::min(n_tok, team > 0 ? team : hardwareThreads());
    const auto runStart = [&](size_t m) { return n_tok * m / members; };
    std::vector<DecoderLayer> layers;
    layers.reserve(members);
    for (size_t m = 0; m < members; ++m)
        layers.emplace_back(cfg_, runStart(m + 1) - runStart(m));

    runTeam(members, [&](size_t m, std::barrier<> &sync) {
        const size_t t0 = runStart(m);
        const size_t t1 = runStart(m + 1);
        DecoderLayer &layer = layers[m];
        const tensor::Span x(hidden.row(t0).data(), (t1 - t0) * h);
        for (int l = 0; l < cfg_.n_layers; ++l) {
            const LayerWeights &lw = weights_->layer(l);
            layer.project(lw, x, s.pos + static_cast<int>(t0));
            sync.arrive_and_wait();
            if (m == 0) {
                for (size_t r = 0; r < members; ++r) {
                    for (size_t t = 0; t < layers[r].maxRows(); ++t)
                        s.kv->append(l, layers[r].k(t), layers[r].v(t));
                }
            }
            sync.arrive_and_wait();

            // Token t sees what was cached before the block and the
            // block's tokens up to itself.
            const int cached = s.kv->length(l) - static_cast<int>(n_tok);
            for (size_t t = t0; t < t1; ++t) {
                layer.attend(t - t0, *s.kv, l,
                             cached + static_cast<int>(t) + 1);
            }
            layer.finish(lw, x, opts_.sparse_ffn, opts_.ffn_active_frac);
            for (size_t t = t0; t < t1; ++t) {
                steer(block[t], hidden.row(t), l);
                if (static_cast<size_t>(l) < n_exit) {
                    const size_t r = t * n_exit + static_cast<size_t>(l);
                    std::ranges::copy(hidden.row(t),
                                      hiddens.begin() +
                                          static_cast<long>(r * h));
                }
            }
        }
    });
    std::ranges::copy(hidden.row(n_tok - 1), block.back().hidden.begin());
    s.tok = std::move(block.back());
    s.pos += static_cast<int>(n_tok);
    s.layer = cfg_.n_layers;
}

void
TargetModel::steer(const TokenSteer &ts, tensor::Span hidden,
                   int layer_just_run) const
{
    const SteerParams &sp = opts_.steer;
    const int l = layer_just_run;

    float alpha = tensor::sigmoid(
        (static_cast<float>(l - ts.script.conv_layer) + 0.5f) / sp.tau);
    if (l == cfg_.n_layers - 1)
        alpha = std::max(alpha, sp.final_alpha);

    // The distractor fades in over the first few layers and out as
    // the target takes over.
    const float ramp =
        std::min(1.0f, static_cast<float>(l + 1) / 4.0f);
    const float beta = sp.distractor_strength * ts.distractorScale *
                       (1.0f - alpha) * ramp;

    unitize(hidden); // texture component on the unit sphere
    const float tex = std::max(0.0f, 1.0f - alpha - beta);
    for (size_t i = 0; i < hidden.size(); ++i) {
        hidden[i] = tex * hidden[i] + alpha * ts.dirTarget[i] +
                    beta * ts.dirDistractor[i];
    }
    unitize(hidden);
}

tensor::CSpan
TargetModel::runLayer(SequenceState &s) const
{
    specee_assert(s.inToken, "runLayer outside a decode step");
    specee_assert(s.layer < cfg_.n_layers, "runLayer past last layer");
    const int l = s.layer;
    const LayerWeights &lw = weights_->layer(l);
    DecoderLayer &layer = s.scratch;
    layer.project(lw, s.tok.hidden, s.pos);
    s.kv->append(l, layer.k(0), layer.v(0));
    layer.attend(0, *s.kv, l, s.kv->length(l));
    layer.finish(lw, s.tok.hidden, opts_.sparse_ffn, opts_.ffn_active_frac);
    steer(s.tok, s.tok.hidden, l);
    ++s.layer;
    return s.tok.hidden;
}

int
TargetModel::runRemainingLayers(SequenceState &s) const
{
    specee_assert(s.inToken, "runRemainingLayers outside a decode step");
    while (s.layer < cfg_.n_layers)
        runLayer(s);
    s.inToken = false;
    ++s.pos;
    return lmHead_.argmaxToken(s.tok.hidden);
}

int
TargetModel::finishEarly(SequenceState &s) const
{
    specee_assert(s.inToken, "finishEarly outside a decode step");
    const int filled = cfg_.n_layers - s.layer;
    for (int l = s.layer; l < cfg_.n_layers; ++l) {
        s.scratch.projectKv(weights_->layer(l), s.tok.hidden, s.pos);
        s.kv->append(l, s.scratch.k(0), s.scratch.v(0));
    }
    s.layer = cfg_.n_layers;
    s.inToken = false;
    ++s.pos;
    return filled;
}

} // namespace specee::model
