#include "model/weights.hh"

#include <cmath>

#include "tensor/kernels.hh"
#include "util/rng.hh"

namespace specee::model {

namespace {

tensor::Matrix
randomMatrix(size_t rows, size_t cols, float sd, Rng &rng)
{
    tensor::Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(rng.normal(0.0, sd));
    return m;
}

} // namespace

Weights::Weights(const ModelConfig &cfg,
                 tensor::WeightBackend proj_backend,
                 tensor::WeightBackend head_backend)
    : projBackend_(proj_backend), headBackend_(head_backend)
{
    Rng rng(cfg.weight_seed);
    const size_t h = static_cast<size_t>(cfg.sim.hidden);
    const size_t f = static_cast<size_t>(cfg.sim.ffn);
    const size_t v = static_cast<size_t>(cfg.sim.vocab);

    // Embedding rows normalized to unit L2 norm: the tied LM head then
    // produces logits whose scale is controlled purely by the hidden
    // norm, which the convergence steering relies on.
    tensor::Matrix emb = randomMatrix(v, h, 1.0f, rng);
    for (size_t r = 0; r < v; ++r) {
        tensor::Span row = emb.row(r);
        float n = tensor::norm2(row);
        if (n > 0.0f)
            tensor::scaleInplace(row, 1.0f / n);
    }
    embedding_ = tensor::makeWeightStore(std::move(emb), head_backend);

    // Projection scale keeps layer outputs O(1) per dim before the
    // per-layer renormalization in TargetModel.
    const float ps = 1.0f / std::sqrt(static_cast<float>(h));
    auto proj = [&](size_t rows, size_t cols, float sd) {
        return tensor::makeWeightStore(randomMatrix(rows, cols, sd, rng),
                                       proj_backend);
    };
    layers_.reserve(static_cast<size_t>(cfg.n_layers));
    for (int l = 0; l < cfg.n_layers; ++l) {
        LayerWeights lw;
        lw.wq = proj(h, h, ps);
        lw.wk = proj(h, h, ps);
        lw.wv = proj(h, h, ps);
        lw.wo = proj(h, h, ps);
        lw.w_gate = proj(f, h, ps);
        lw.w_up = proj(f, h, ps);
        lw.w_down = proj(h, f, 1.0f / std::sqrt(static_cast<float>(f)));
        lw.rms_attn.assign(h, 1.0f);
        lw.rms_ffn.assign(h, 1.0f);
        layers_.push_back(std::move(lw));
    }
    rmsFinal_.assign(h, 1.0f);
}

} // namespace specee::model
