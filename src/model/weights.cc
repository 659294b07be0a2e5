#include "model/weights.hh"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace specee::model {

namespace {

/** Shape and scale of one random matrix. */
struct Shape
{
    size_t rows, cols;
    float sd;
};

/** Rows [row0, row1) of one matrix, drawn from their own checkpoint. */
struct Chunk
{
    tensor::Matrix *m;
    size_t row0, row1;
    float sd;
    Rng rng;
};

/** Normals per chunk: small enough to balance, large enough to pay. */
constexpr size_t kChunkValues = size_t{1} << 15;

/**
 * Draw the matrices of `shapes` from `rng`, with the values one
 * sequential pass of normal() calls would give. The matrices are
 * allocated on the calling thread; a skipNormals() pass checkpoints
 * the stream at the start of every chunk of rows, and the chunks
 * fill in parallel.
 */
std::vector<tensor::Matrix>
drawNormals(Rng &rng, const std::vector<Shape> &shapes)
{
    std::vector<tensor::Matrix> out;
    out.reserve(shapes.size()); // chunks point into it
    std::vector<Chunk> chunks;
    for (const Shape &s : shapes) {
        tensor::Matrix &m = out.emplace_back(s.rows, s.cols);
        const size_t step = std::max<size_t>(1, kChunkValues / s.cols);
        for (size_t r = 0; r < s.rows; r += step) {
            const size_t r1 = std::min(s.rows, r + step);
            chunks.push_back({&m, r, r1, s.sd, rng});
            rng.skipNormals((r1 - r) * s.cols);
        }
    }
    parallelFor(chunks.size(), [&](size_t i) {
        Chunk &c = chunks[i];
        float *p = c.m->data() + c.row0 * c.m->cols();
        float *end = c.m->data() + c.row1 * c.m->cols();
        for (; p != end; ++p)
            *p = static_cast<float>(c.rng.normal(0.0, c.sd));
    });
    return out;
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
    tensor::Matrix emb = std::move(drawNormals(rng, {{v, h, 1.0f}})[0]);
    for (size_t r = 0; r < v; ++r) {
        tensor::Span row = emb.row(r);
        float n = tensor::norm2(row);
        if (n > 0.0f)
            tensor::scaleInplace(row, 1.0f / n);
    }
    embedding_ = tensor::makeWeightStore(std::move(emb), head_backend);

    // Projection scale keeps layer outputs O(1) per dim before the
    // per-layer renormalization in TargetModel. One layer is drawn at
    // a time, so a quantized set holds one layer dense at most.
    const float ps = 1.0f / std::sqrt(static_cast<float>(h));
    const float ds = 1.0f / std::sqrt(static_cast<float>(f));
    const std::vector<Shape> layer_shapes = {
        {h, h, ps}, {h, h, ps}, {h, h, ps}, {h, h, ps}, // wq wk wv wo
        {f, h, ps}, {f, h, ps}, {h, f, ds},             // gate up down
    };
    layers_.reserve(static_cast<size_t>(cfg.n_layers));
    for (int l = 0; l < cfg.n_layers; ++l) {
        std::vector<tensor::Matrix> m = drawNormals(rng, layer_shapes);
        const auto proj = [&](size_t i) {
            return tensor::makeWeightStore(std::move(m[i]), proj_backend);
        };
        LayerWeights lw;
        lw.wq = proj(0);
        lw.wk = proj(1);
        lw.wv = proj(2);
        lw.wo = proj(3);
        lw.w_gate = proj(4);
        lw.w_up = proj(5);
        lw.w_down = proj(6);
        lw.rms_attn.assign(h, 1.0f);
        lw.rms_ffn.assign(h, 1.0f);
        layers_.push_back(std::move(lw));
    }
    rmsFinal_.assign(h, 1.0f);
}

} // namespace specee::model
