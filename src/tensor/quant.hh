/**
 * @file
 * Group-wise INT4 and row-wise INT8 weight quantization.
 *
 * Q4Matrix implements AWQ/llama.cpp-style 4-bit group quantization
 * (group size 32, per-group fp32 scale + minimum, asymmetric) and a
 * dequantize-on-the-fly GEMV. This is the real kernel behind the
 * "AWQ" and "llama.cpp" baseline engines; the hw::CostModel prices it
 * at one quarter of the fp16 weight traffic. Q8Matrix and Q4Matrix
 * are WeightStore backends themselves, and share one GEMV row loop
 * over their own rowDot.
 */

#ifndef SPECEE_TENSOR_QUANT_HH
#define SPECEE_TENSOR_QUANT_HH

#include <cstdint>
#include <vector>

#include "tensor/matrix.hh"
#include "tensor/weight_store.hh"

namespace specee::tensor {

/** Values per quantization group. */
constexpr size_t kQ4GroupSize = 32;

/**
 * 4-bit group-quantized matrix (asymmetric, per-group scale + min).
 *
 * Each group of 32 consecutive values in a row is stored as 16 packed
 * bytes plus an fp32 (scale, min) pair: v ~= min + scale * q, q in
 * [0, 15]. Rows are padded up to a whole number of groups.
 */
class Q4Matrix final : public WeightStore
{
  public:
    Q4Matrix() = default;

    /** Quantize a dense matrix. */
    static Q4Matrix quantize(const Matrix &m);

    /** Reconstruct the dense approximation. */
    Matrix dequantize() const;

    WeightBackend backend() const override { return WeightBackend::Q4; }
    size_t rows() const override { return rows_; }
    size_t cols() const override { return cols_; }

    /** Actual packed storage footprint in bytes. */
    size_t byteSize() const override;

    /** y = W~ x where W~ is the dequantized matrix. */
    void gemv(CSpan x, Span y) const override;

    /** Sliced GEMV over selected rows (speculative LM head on Q4). */
    void gemvRows(const std::vector<int> &rows, CSpan x,
                  Span y) const override;

    /** Dot of (dequantized) row r with x. */
    float rowDot(size_t r, CSpan x) const override;

    /** Dequantized single element (for tests / sparse access). */
    float at(size_t r, size_t c) const override;

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    size_t groupsPerRow_ = 0;
    std::vector<uint8_t> packed_;  // 16 bytes per group
    std::vector<float> scale_;     // per group
    std::vector<float> minv_;      // per group
};

/**
 * 8-bit row-quantized matrix (symmetric, per-row scale).
 */
class Q8Matrix final : public WeightStore
{
  public:
    Q8Matrix() = default;

    static Q8Matrix quantize(const Matrix &m);
    Matrix dequantize() const;

    WeightBackend backend() const override { return WeightBackend::Q8; }
    size_t rows() const override { return rows_; }
    size_t cols() const override { return cols_; }
    size_t byteSize() const override;

    void gemv(CSpan x, Span y) const override;

    /** Sliced GEMV over selected rows (speculative LM head on Q8). */
    void gemvRows(const std::vector<int> &rows, CSpan x,
                  Span y) const override;

    /** Dot of (dequantized) row r with x. */
    float rowDot(size_t r, CSpan x) const override;

    /** Dequantized single element (for tests / sparse access). */
    float at(size_t r, size_t c) const override;

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<int8_t> q_;
    std::vector<float> scale_;
};

} // namespace specee::tensor

#endif // SPECEE_TENSOR_QUANT_HH
