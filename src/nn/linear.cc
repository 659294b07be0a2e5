#include "nn/linear.hh"

#include <cmath>

#include "tensor/simd.hh"
#include "util/logging.hh"

namespace specee::nn {

Linear::Linear(size_t in_dim, size_t out_dim, Rng &rng)
    : w_(out_dim, in_dim),
      b_(out_dim, 0.0f),
      gw_(out_dim, in_dim),
      gb_(out_dim, 0.0f),
      mw_(out_dim, in_dim),
      vw_(out_dim, in_dim),
      mb_(out_dim, 0.0f),
      vb_(out_dim, 0.0f)
{
    const float sd = std::sqrt(2.0f / static_cast<float>(in_dim));
    for (size_t r = 0; r < out_dim; ++r)
        for (size_t c = 0; c < in_dim; ++c)
            w_.at(r, c) = static_cast<float>(rng.normal(0.0, sd));
}

void
Linear::forward(tensor::CSpan x, tensor::Span out) const
{
    specee_assert(x.size() == w_.cols() && out.size() == w_.rows(),
                  "linear forward shape");
    for (size_t r = 0; r < w_.rows(); ++r) {
        const float *row = w_.data() + r * w_.cols();
        float acc = b_[r];
        for (size_t c = 0; c < w_.cols(); ++c)
            acc += row[c] * x[c];
        out[r] = acc;
    }
}

void
Linear::forwardBatch(const float *x, size_t n, bool relu, float *y) const
{
    tensor::simd::linearForwardBatch(w_.data(), b_.data(), w_.rows(),
                                     w_.cols(), x, n, relu, y);
}

void
Linear::accumulateGrad(const float *dy, const float *x, size_t n)
{
    tensor::simd::linearParamGrad(dy, x, w_.rows(), w_.cols(), n,
                                  gw_.data(), gb_.data());
}

void
Linear::inputGrad(const float *dy, size_t n, const float *relu_out,
                  float *dx) const
{
    tensor::simd::linearInputGrad(w_.data(), w_.rows(), w_.cols(), dy, n,
                                  relu_out, dx);
}

void
Linear::adamStep(double lr, double beta1, double beta2, double eps,
                 int t, size_t batch)
{
    const tensor::simd::AdamCoeffs a{lr,
                                     beta1,
                                     beta2,
                                     eps,
                                     1.0 - std::pow(beta1, t),
                                     1.0 - std::pow(beta2, t),
                                     1.0 / static_cast<double>(batch)};
    tensor::simd::adamUpdate(w_.data(), mw_.data(), vw_.data(), gw_.data(),
                             w_.size(), a);
    tensor::simd::adamUpdate(b_.data(), mb_.data(), vb_.data(), gb_.data(),
                             b_.size(), a);
}

} // namespace specee::nn
