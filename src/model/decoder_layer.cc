#include "model/decoder_layer.hh"

#include "model/attention.hh"
#include "tensor/kernels.hh"
#include "util/logging.hh"

namespace specee::model {

namespace {

/** The first m rows of x as one row-major span. */
tensor::Span
firstRows(tensor::Matrix &x, size_t m)
{
    return tensor::Span(x.row(0).data(), m * x.cols());
}

} // namespace

DecoderLayer::DecoderLayer(const ModelConfig &cfg, size_t rows)
    : hidden_(cfg.sim.hidden),
      heads_(cfg.sim.heads),
      headDim_(cfg.sim.headDim()),
      rows_(rows),
      normed_(rows, static_cast<size_t>(hidden_)),
      q_(rows, static_cast<size_t>(hidden_)),
      k_(rows, static_cast<size_t>(hidden_)),
      v_(rows, static_cast<size_t>(hidden_)),
      ctx_(rows, static_cast<size_t>(hidden_)),
      sub_(rows, static_cast<size_t>(hidden_)),
      gate_(rows, static_cast<size_t>(cfg.sim.ffn)),
      up_(rows, static_cast<size_t>(cfg.sim.ffn)),
      scores_(static_cast<size_t>(cfg.context_len)),
      sparse_(cfg)
{
    specee_assert(rows > 0, "decoder layer of no rows");
    specee_assert(hidden_ % heads_ == 0, "hidden %% heads != 0");
}

size_t
DecoderLayer::blockRows(tensor::CSpan x) const
{
    const auto h = static_cast<size_t>(hidden_);
    const size_t m = h > 0 ? x.size() / h : 0;
    specee_assert(m >= 1 && m <= rows_ && x.size() == m * h,
                  "decoder layer block of %zu floats (hidden %zu, %zu "
                  "rows)", x.size(), h, rows_);
    return m;
}

void
DecoderLayer::projectRows(const LayerWeights &lw, tensor::CSpan x,
                          int pos0, bool with_q)
{
    const size_t m = blockRows(x);
    const auto h = static_cast<size_t>(hidden_);
    const auto heads = static_cast<size_t>(heads_);
    const auto hd = static_cast<size_t>(headDim_);
    for (size_t t = 0; t < m; ++t)
        tensor::rmsnorm(x.subspan(t * h, h), lw.rms_attn, normed_.row(t));
    const tensor::CSpan xn = firstRows(normed_, m);
    if (with_q)
        lw.wq->gemvBatch(xn, firstRows(q_, m));
    lw.wk->gemvBatch(xn, firstRows(k_, m));
    lw.wv->gemvBatch(xn, firstRows(v_, m));
    for (size_t t = 0; t < m; ++t) {
        const size_t pos = static_cast<size_t>(pos0) + t;
        if (with_q)
            tensor::rope(q_.row(t), heads, hd, pos);
        tensor::rope(k_.row(t), heads, hd, pos);
    }
}

void
DecoderLayer::attend(size_t t, const KvStore &kv, int layer, int n_pos)
{
    model::attend(q_.row(t), kv, layer, n_pos, heads_, headDim_,
                  ctx_.row(t), scores_);
}

void
DecoderLayer::finish(const LayerWeights &lw, tensor::Span x,
                     bool sparse_ffn, float active_frac)
{
    const size_t m = blockRows(x);
    const auto h = static_cast<size_t>(hidden_);
    lw.wo->gemvBatch(firstRows(ctx_, m), firstRows(sub_, m));
    for (size_t t = 0; t < m; ++t) {
        const tensor::Span xt = x.subspan(t * h, h);
        tensor::addInplace(xt, sub_.row(t));
        tensor::rmsnorm(xt, lw.rms_ffn, normed_.row(t));
    }
    if (sparse_ffn) {
        for (size_t t = 0; t < m; ++t) {
            sparse_.forwardSparse(lw, normed_.row(t), active_frac,
                                  sub_.row(t));
        }
    } else {
        lw.w_gate->gemvBatch(firstRows(normed_, m), firstRows(gate_, m));
        lw.w_up->gemvBatch(firstRows(normed_, m), firstRows(up_, m));
        for (size_t t = 0; t < m; ++t)
            Ffn::swiglu(gate_.row(t), up_.row(t), gate_.row(t));
        lw.w_down->gemvBatch(firstRows(gate_, m), firstRows(sub_, m));
    }
    for (size_t t = 0; t < m; ++t)
        tensor::addInplace(x.subspan(t * h, h), sub_.row(t));
}

} // namespace specee::model
