#include "model/decoder_layer.hh"

#include "tensor/kernels.hh"
#include "util/logging.hh"

namespace specee::model {

DecoderLayer::DecoderLayer(const ModelConfig &cfg)
    : hidden_(cfg.sim.hidden),
      heads_(cfg.sim.heads),
      headDim_(cfg.sim.headDim()),
      attn_(cfg),
      ffn_(cfg),
      normed_(static_cast<size_t>(hidden_)),
      sub_(static_cast<size_t>(hidden_)),
      k_(static_cast<size_t>(hidden_)),
      v_(static_cast<size_t>(hidden_))
{
}

void
DecoderLayer::forward(const LayerWeights &lw, int layer, tensor::Span x,
                      int pos, KvStore &kv, bool sparse_ffn,
                      float active_frac)
{
    specee_assert(x.size() == static_cast<size_t>(hidden_),
                  "decoder layer io size");
    // Attention block.
    tensor::rmsnorm(x, lw.rms_attn, normed_);
    attn_.forward(lw, layer, normed_, pos, kv, sub_);
    tensor::addInplace(x, sub_);
    // FFN block.
    tensor::rmsnorm(x, lw.rms_ffn, normed_);
    if (sparse_ffn)
        ffn_.forwardSparse(lw, normed_, active_frac, sub_);
    else
        ffn_.forward(lw, normed_, sub_);
    tensor::addInplace(x, sub_);
}

void
DecoderLayer::fillKv(const LayerWeights &lw, int layer, tensor::CSpan x,
                     int pos, KvStore &kv)
{
    tensor::rmsnorm(x, lw.rms_attn, normed_);
    lw.wk->gemv(normed_, k_);
    lw.wv->gemv(normed_, v_);
    tensor::rope(k_, static_cast<size_t>(heads_),
                 static_cast<size_t>(headDim_), static_cast<size_t>(pos));
    kv.append(layer, k_, v_);
}

} // namespace specee::model
