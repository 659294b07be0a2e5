#include "tensor/quant.hh"

#include <algorithm>
#include <cmath>

#include "tensor/simd.hh"
#include "util/logging.hh"

namespace specee::tensor {

namespace {

/**
 * The GEMV row loops both quantized stores share. `W` is a final
 * class, so each w.rowDot is a direct call, not a virtual one.
 */
template <class W>
void
quantGemv(const W &w, CSpan x, Span y)
{
    specee_assert(x.size() == w.cols() && y.size() == w.rows(),
                  "%s gemv shape mismatch", weightBackendName(w.backend()));
    for (size_t r = 0; r < w.rows(); ++r)
        y[r] = w.rowDot(r, x);
}

template <class W>
void
quantGemvRows(const W &w, const std::vector<int> &rows, CSpan x, Span y)
{
    specee_assert(x.size() == w.cols() && y.size() == rows.size(),
                  "%s gemvRows shape mismatch",
                  weightBackendName(w.backend()));
    for (size_t i = 0; i < rows.size(); ++i) {
        specee_assert(rows[i] >= 0 &&
                      static_cast<size_t>(rows[i]) < w.rows(),
                      "%s gemvRows row %d out of range",
                      weightBackendName(w.backend()), rows[i]);
        y[i] = w.rowDot(static_cast<size_t>(rows[i]), x);
    }
}

} // namespace

Q4Matrix
Q4Matrix::quantize(const Matrix &m)
{
    Q4Matrix out;
    out.rows_ = m.rows();
    out.cols_ = m.cols();
    out.groupsPerRow_ = (m.cols() + kQ4GroupSize - 1) / kQ4GroupSize;
    const size_t n_groups = out.rows_ * out.groupsPerRow_;
    out.packed_.assign(n_groups * kQ4GroupSize / 2, 0);
    out.scale_.assign(n_groups, 0.0f);
    out.minv_.assign(n_groups, 0.0f);

    for (size_t r = 0; r < m.rows(); ++r) {
        for (size_t g = 0; g < out.groupsPerRow_; ++g) {
            const size_t c0 = g * kQ4GroupSize;
            const size_t c1 = std::min(c0 + kQ4GroupSize, m.cols());
            float lo = m.at(r, c0);
            float hi = lo;
            for (size_t c = c0; c < c1; ++c) {
                lo = std::min(lo, m.at(r, c));
                hi = std::max(hi, m.at(r, c));
            }
            const size_t gi = r * out.groupsPerRow_ + g;
            float scale = (hi - lo) / 15.0f;
            if (scale <= 0.0f)
                scale = 1.0f;
            out.scale_[gi] = scale;
            out.minv_[gi] = lo;
            uint8_t *dst = out.packed_.data() + gi * (kQ4GroupSize / 2);
            for (size_t c = c0; c < c1; ++c) {
                float q = std::round((m.at(r, c) - lo) / scale);
                uint8_t qi = static_cast<uint8_t>(
                    std::clamp(q, 0.0f, 15.0f));
                const size_t off = c - c0;
                if (off % 2 == 0)
                    dst[off / 2] |= qi;
                else
                    dst[off / 2] |= static_cast<uint8_t>(qi << 4);
            }
        }
    }
    return out;
}

float
Q4Matrix::at(size_t r, size_t c) const
{
    specee_assert(r < rows_ && c < cols_, "Q4Matrix::at out of range");
    const size_t g = c / kQ4GroupSize;
    const size_t off = c % kQ4GroupSize;
    const size_t gi = r * groupsPerRow_ + g;
    const uint8_t *src = packed_.data() + gi * (kQ4GroupSize / 2);
    uint8_t qi = (off % 2 == 0) ? (src[off / 2] & 0x0f)
                                : (src[off / 2] >> 4);
    return minv_[gi] + scale_[gi] * static_cast<float>(qi);
}

Matrix
Q4Matrix::dequantize() const
{
    Matrix m(rows_, cols_);
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            m.at(r, c) = at(r, c);
    return m;
}

float
Q4Matrix::rowDot(size_t r, CSpan x) const
{
    specee_assert(r < rows_ && x.size() == cols_,
                  "Q4 rowDot shape mismatch");
    float acc = 0.0f;
    for (size_t g = 0; g < groupsPerRow_; ++g) {
        const size_t c0 = g * kQ4GroupSize;
        const size_t c1 = std::min(c0 + kQ4GroupSize, cols_);
        const size_t gi = r * groupsPerRow_ + g;
        const uint8_t *src = packed_.data() + gi * (kQ4GroupSize / 2);
        float dot_q = 0.0f;
        float sum_x = 0.0f;
        simd::q4GroupDot(src, x.data() + c0, c1 - c0, dot_q, sum_x);
        acc += scale_[gi] * dot_q + minv_[gi] * sum_x;
    }
    return acc;
}

void
Q4Matrix::gemv(CSpan x, Span y) const
{
    quantGemv(*this, x, y);
}

void
Q4Matrix::gemvRows(const std::vector<int> &rows, CSpan x, Span y) const
{
    quantGemvRows(*this, rows, x, y);
}

size_t
Q4Matrix::byteSize() const
{
    return packed_.size() * sizeof(uint8_t) +
           scale_.size() * sizeof(float) + minv_.size() * sizeof(float);
}

Q8Matrix
Q8Matrix::quantize(const Matrix &m)
{
    Q8Matrix out;
    out.rows_ = m.rows();
    out.cols_ = m.cols();
    out.q_.resize(m.rows() * m.cols());
    out.scale_.resize(m.rows());
    for (size_t r = 0; r < m.rows(); ++r) {
        float mx = 0.0f;
        for (size_t c = 0; c < m.cols(); ++c)
            mx = std::max(mx, std::fabs(m.at(r, c)));
        float scale = mx > 0.0f ? mx / 127.0f : 1.0f;
        out.scale_[r] = scale;
        for (size_t c = 0; c < m.cols(); ++c) {
            float q = std::round(m.at(r, c) / scale);
            out.q_[r * m.cols() + c] = static_cast<int8_t>(
                std::clamp(q, -127.0f, 127.0f));
        }
    }
    return out;
}

Matrix
Q8Matrix::dequantize() const
{
    Matrix m(rows_, cols_);
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            m.at(r, c) = scale_[r] * static_cast<float>(q_[r * cols_ + c]);
    return m;
}

float
Q8Matrix::at(size_t r, size_t c) const
{
    specee_assert(r < rows_ && c < cols_, "Q8Matrix::at out of range");
    return scale_[r] * static_cast<float>(q_[r * cols_ + c]);
}

float
Q8Matrix::rowDot(size_t r, CSpan x) const
{
    specee_assert(r < rows_ && x.size() == cols_,
                  "Q8 rowDot shape mismatch");
    return scale_[r] * simd::dotQ8(q_.data() + r * cols_, x.data(), cols_);
}

void
Q8Matrix::gemv(CSpan x, Span y) const
{
    quantGemv(*this, x, y);
}

void
Q8Matrix::gemvRows(const std::vector<int> &rows, CSpan x, Span y) const
{
    quantGemvRows(*this, rows, x, y);
}

size_t
Q8Matrix::byteSize() const
{
    return q_.size() * sizeof(int8_t) + scale_.size() * sizeof(float);
}

} // namespace specee::tensor
