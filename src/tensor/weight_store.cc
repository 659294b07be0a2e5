#include "tensor/weight_store.hh"

#include <algorithm>

#include "tensor/kernels.hh"
#include "tensor/quant.hh"
#include "util/logging.hh"

namespace specee::tensor {

const char *
weightBackendName(WeightBackend b)
{
    switch (b) {
    case WeightBackend::Fp32:
        return "fp32";
    case WeightBackend::Q8:
        return "q8";
    case WeightBackend::Q4:
        return "q4";
    }
    specee_panic("bad weight backend %d", static_cast<int>(b));
}

WeightBackend
parseWeightBackend(const std::string &name)
{
    if (name == "fp32" || name == "fp16" || name == "dense")
        return WeightBackend::Fp32;
    if (name == "q8" || name == "int8")
        return WeightBackend::Q8;
    if (name == "q4" || name == "int4" || name == "awq")
        return WeightBackend::Q4;
    specee_fatal("unknown weight backend '%s' (want fp32/q8/q4)",
                 name.c_str());
}

double
modeledBitsPerWeight(WeightBackend b)
{
    switch (b) {
    case WeightBackend::Fp32:
        return 16.0; // served as fp16
    case WeightBackend::Q8:
        return 8.0; // per-row scale amortizes out at true dims
    case WeightBackend::Q4:
        return 4.5; // 4-bit payload + per-group scale/min
    }
    specee_panic("bad weight backend %d", static_cast<int>(b));
}

double
weightCompression(WeightBackend b)
{
    return modeledBitsPerWeight(b) / 16.0;
}

void
WeightStore::gemvBatch(CSpan x, Span y) const
{
    const size_t n = cols();
    const size_t k = n > 0 ? x.size() / n : 0;
    specee_assert(n > 0 && x.size() == k * n && y.size() == k * rows(),
                  "gemvBatch shape mismatch");
    for (size_t j = 0; j < k; ++j)
        gemv(x.subspan(j * n, n), y.subspan(j * rows(), rows()));
}

void
WeightStore::copyRow(size_t r, Span out) const
{
    specee_assert(out.size() == cols(), "copyRow size mismatch");
    for (size_t c = 0; c < cols(); ++c)
        out[c] = at(r, c);
}

void
WeightStore::addScaledColumn(size_t c, float scale, Span out) const
{
    specee_assert(out.size() == rows(),
                  "addScaledColumn size mismatch");
    for (size_t r = 0; r < rows(); ++r)
        out[r] += scale * at(r, c);
}

std::unique_ptr<WeightStore>
makeWeightStore(Matrix dense, WeightBackend backend)
{
    switch (backend) {
    case WeightBackend::Fp32:
        return std::make_unique<Fp32Store>(std::move(dense));
    case WeightBackend::Q8:
        return std::make_unique<Q8Matrix>(Q8Matrix::quantize(dense));
    case WeightBackend::Q4:
        return std::make_unique<Q4Matrix>(Q4Matrix::quantize(dense));
    }
    specee_panic("bad weight backend %d", static_cast<int>(backend));
}

void
Fp32Store::gemv(CSpan x, Span y) const
{
    tensor::gemv(m_, x, y);
}

void
Fp32Store::gemvBatch(CSpan x, Span y) const
{
    tensor::gemvBatch(m_, x, y);
}

void
Fp32Store::gemvRows(const std::vector<int> &rows, CSpan x, Span y) const
{
    tensor::gemvRows(m_, rows, x, y);
}

float
Fp32Store::rowDot(size_t r, CSpan x) const
{
    specee_assert(r < m_.rows() && x.size() == m_.cols(),
                  "fp32 rowDot shape mismatch");
    return tensor::dot(m_.row(r), x);
}

float
Fp32Store::at(size_t r, size_t c) const
{
    specee_assert(r < m_.rows() && c < m_.cols(),
                  "Fp32Store::at out of range");
    return m_.at(r, c);
}

void
Fp32Store::copyRow(size_t r, Span out) const
{
    specee_assert(r < m_.rows(), "copyRow row %zu out of range", r);
    specee_assert(out.size() == m_.cols(), "copyRow size mismatch");
    CSpan row = m_.row(r);
    std::copy(row.begin(), row.end(), out.begin());
}

void
Fp32Store::addScaledColumn(size_t c, float scale, Span out) const
{
    specee_assert(c < m_.cols(), "addScaledColumn column %zu out of range",
                  c);
    specee_assert(out.size() == m_.rows(),
                  "addScaledColumn size mismatch");
    const size_t stride = m_.cols();
    const float *base = m_.data() + c;
    for (size_t r = 0; r < m_.rows(); ++r)
        out[r] += scale * base[r * stride];
}

} // namespace specee::tensor
