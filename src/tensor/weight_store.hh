/**
 * @file
 * WeightStore — the pluggable weight-matrix backend.
 *
 * One weight matrix can be held dense fp32, row-quantized int8, or
 * group-quantized int4; every consumer in the model stack (attention
 * and FFN projections, the tied LM head, the sparse-FFN row/column
 * access paths) talks to this interface instead of a concrete
 * storage class, so a whole model loads under any backend from one
 * EngineConfig knob. The SpecEE lever (fewer layers read per token)
 * and the quantization lever (fewer bytes per layer read) compound:
 * hw::CostModel prices the compressed weight traffic, and the serving
 * batch scheduler amortizes the compressed shared read.
 *
 * Three final classes implement it: Fp32Store here (a Matrix on the
 * tensor/kernels.hh GEMVs), and Q8Matrix and Q4Matrix in
 * tensor/quant.hh. Inner loops run on the SIMD-dispatch kernels of
 * tensor/simd.hh.
 */

#ifndef SPECEE_TENSOR_WEIGHT_STORE_HH
#define SPECEE_TENSOR_WEIGHT_STORE_HH

#include <memory>
#include <string>
#include <vector>

#include "tensor/matrix.hh"

namespace specee::tensor {

/** Storage backend for one weight matrix (and for a whole model). */
enum class WeightBackend : int {
    Fp32 = 0, ///< dense float (modeled as fp16 on device)
    Q8,       ///< row-quantized int8, per-row fp32 scale
    Q4,       ///< group-quantized int4 (AWQ-style, group 32)
};

/** Canonical name ("fp32" / "q8" / "q4"). */
const char *weightBackendName(WeightBackend b);

/** Parse a backend name; fatal on an unknown name. */
WeightBackend parseWeightBackend(const std::string &name);

/**
 * Bits per weight the deployment-scale cost/memory models charge for
 * this backend: fp16 for dense (GPU serving ships fp16, the fp32 sim
 * storage is a functional detail), 8 for Q8 (per-row scales amortize
 * to nothing at true dims), 4.5 for Q4 (4-bit payload + per-group
 * scale/min).
 */
double modeledBitsPerWeight(WeightBackend b);

/** Weight-traffic compression vs fp16: modeledBits(b) / 16. */
double weightCompression(WeightBackend b);

/**
 * Backend-agnostic weight matrix: the uniform GEMV/row-access
 * interface every model component programs against.
 */
class WeightStore
{
  public:
    virtual ~WeightStore() = default;

    virtual WeightBackend backend() const = 0;
    virtual size_t rows() const = 0;
    virtual size_t cols() const = 0;

    /** Actual packed storage footprint in bytes (functional). */
    virtual size_t byteSize() const = 0;

    /** y = W x (dequantize-on-the-fly for compressed backends). */
    virtual void gemv(CSpan x, Span y) const = 0;

    /**
     * Batched GEMV: row j of y = W times row j of x, for x
     * (k x cols) and y (k x rows), both row-major; every row equals
     * gemv()'s bit for bit. Fp32Store reads each weight row once
     * per four vectors; the quantized backends run gemv() per row.
     */
    virtual void gemvBatch(CSpan x, Span y) const;

    /** y[i] = W.row(rows[i]) . x — the speculative LM head slice. */
    virtual void gemvRows(const std::vector<int> &rows, CSpan x,
                          Span y) const = 0;

    /** Dot of row r with x (sparse row access). */
    virtual float rowDot(size_t r, CSpan x) const = 0;

    /** Dequantized single element. */
    virtual float at(size_t r, size_t c) const = 0;

    /** Dequantize row r into out (out.size() == cols()). */
    virtual void copyRow(size_t r, Span out) const;

    /** out += scale * column c (sparse down-projection accumulate). */
    virtual void addScaledColumn(size_t c, float scale, Span out) const;

  protected:
    // Backends are built and moved by value (Q8Matrix::quantize), so
    // only derived classes copy or move the (stateless) base.
    WeightStore() = default;
    WeightStore(const WeightStore &) = default;
    WeightStore(WeightStore &&) = default;
    WeightStore &operator=(const WeightStore &) = default;
    WeightStore &operator=(WeightStore &&) = default;
};

/**
 * Quantize (or move) a dense matrix into a store of the requested
 * backend: an Fp32Store, Q8Matrix or Q4Matrix. The dense source is
 * dropped for compressed backends.
 */
std::unique_ptr<WeightStore> makeWeightStore(Matrix dense,
                                             WeightBackend backend);

/** Dense fp32 store (zero-copy over Matrix; exact). */
class Fp32Store final : public WeightStore
{
  public:
    explicit Fp32Store(Matrix m) : m_(std::move(m)) {}

    WeightBackend backend() const override { return WeightBackend::Fp32; }
    size_t rows() const override { return m_.rows(); }
    size_t cols() const override { return m_.cols(); }
    size_t byteSize() const override { return m_.byteSize(); }
    void gemv(CSpan x, Span y) const override;
    void gemvBatch(CSpan x, Span y) const override;
    void gemvRows(const std::vector<int> &rows, CSpan x,
                  Span y) const override;
    float rowDot(size_t r, CSpan x) const override;
    float at(size_t r, size_t c) const override;
    void copyRow(size_t r, Span out) const override;
    void addScaledColumn(size_t c, float scale, Span out) const override;

  private:
    Matrix m_;
};

} // namespace specee::tensor

#endif // SPECEE_TENSOR_WEIGHT_STORE_HH
