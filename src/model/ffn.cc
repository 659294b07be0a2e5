#include "model/ffn.hh"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.hh"
#include "util/logging.hh"

namespace specee::model {

Ffn::Ffn(const ModelConfig &cfg)
    : hidden_(cfg.sim.hidden),
      ffnDim_(cfg.sim.ffn),
      gate_(static_cast<size_t>(ffnDim_)),
      act_(static_cast<size_t>(ffnDim_)),
      mags_(static_cast<size_t>(ffnDim_))
{
    top_.reserve(static_cast<size_t>(ffnDim_));
}

void
Ffn::swiglu(tensor::CSpan gate, tensor::CSpan up, tensor::Span act)
{
    for (size_t i = 0; i < act.size(); ++i) {
        const float g = gate[i];
        act[i] = g * tensor::sigmoid(g) * up[i];
    }
}

void
Ffn::forwardSparse(const LayerWeights &lw, tensor::CSpan x_normed,
                   float active_frac, tensor::Span out)
{
    specee_assert(active_frac > 0.0f && active_frac <= 1.0f,
                  "bad active fraction %f", active_frac);
    specee_assert(x_normed.size() == static_cast<size_t>(hidden_) &&
                  out.size() == static_cast<size_t>(hidden_),
                  "ffn io size");

    // Gate scores select the active neuron set (PowerInfer predicts
    // this set; we compute it exactly — same selected set, same cost
    // charged by the cost model).
    lw.w_gate->gemv(x_normed, gate_);
    for (int i = 0; i < ffnDim_; ++i) {
        const float g = gate_[static_cast<size_t>(i)];
        act_[static_cast<size_t>(i)] = g * tensor::sigmoid(g);
    }
    for (int i = 0; i < ffnDim_; ++i)
        mags_[static_cast<size_t>(i)] =
            std::fabs(act_[static_cast<size_t>(i)]);
    const int keep = std::max(
        1, static_cast<int>(std::ceil(active_frac * ffnDim_)));
    tensor::topk(mags_, static_cast<size_t>(keep), top_);

    std::fill(out.begin(), out.end(), 0.0f);
    for (const auto &[idx, mag] : top_) {
        (void)mag;
        const size_t i = static_cast<size_t>(idx);
        const float u = lw.w_up->rowDot(i, x_normed);
        const float a = act_[i] * u;
        lw.w_down->addScaledColumn(i, a, out);
    }
    lastActive_ = keep;
}

} // namespace specee::model
