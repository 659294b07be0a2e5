/**
 * @file
 * Runtime-dispatched SIMD inner loops for the hot tensor kernels.
 *
 * The functional simulator spends nearly all of its time in four
 * inner loops: the fp32 row dot behind gemv/gemvRows/dot, the fp32
 * row dot against four vectors at once behind the batched gemv, the
 * int8 row dot behind Q8Matrix, and the packed-nibble group dot
 * behind Q4Matrix. Each has an AVX2+FMA implementation selected once
 * at startup by CPUID (scalar everywhere else), so one binary runs
 * fast on AVX2 hosts and correctly on any x86-64 or non-x86 target.
 *
 * Predictor training (nn::Mlp::fit) runs on four more: a dense
 * layer's forward over a minibatch, its input gradient, its weight
 * and bias gradients, and the Adam update. Their AVX2 versions are
 * built without FMA and vectorize across samples, output rows or
 * parameters, never across a sum's terms, so every element is
 * computed with the same operations in the same order as the scalar
 * loop: training gives the same bits at either level.
 *
 * Dispatch control:
 *  - detection happens on first use (no static-init order hazards);
 *  - the SPECEE_SIMD environment variable ("scalar", "avx2", "auto")
 *    overrides detection, which is how CI runs the kernel-parity
 *    tests on both paths from one binary;
 *  - tests may call setLevel() directly (falls back to Scalar when
 *    the requested ISA is unavailable).
 *
 * Note the modeled paper-figure latencies come from hw::CostModel and
 * are byte-counted, so SIMD changes wall-clock of the simulator, not
 * any modeled result. The dot kernels' vector lanes reassociate float
 * additions, so their outputs may differ from scalar by normal
 * rounding noise; parity is asserted to tolerance in
 * tests/test_weight_store.cc.
 */

#ifndef SPECEE_TENSOR_SIMD_HH
#define SPECEE_TENSOR_SIMD_HH

#include <cstddef>
#include <cstdint>

namespace specee::tensor::simd {

/** Instruction-set level of the dispatched kernels. */
enum class Level : int {
    Scalar = 0, ///< portable reference loops
    Avx2,       ///< AVX2 + FMA (x86-64)
};

/** Short name ("scalar" / "avx2") for logs and tables. */
const char *levelName(Level lvl);

/** Highest level this CPU supports. */
Level detectLevel();

/**
 * Level the kernels currently dispatch to. First call resolves the
 * SPECEE_SIMD environment override, then CPUID detection.
 */
Level activeLevel();

/**
 * Force a dispatch level (tests / benchmarks). Requests for an
 * unsupported level fall back to Scalar. Not thread-safe against
 * concurrent kernel calls; call before spawning workers.
 */
void setLevel(Level lvl);

/** sum_i a[i] * b[i] (fp32 gemv / attention-score inner loop). */
float dotF32(const float *a, const float *b, size_t n);

/**
 * Four row dots in one pass over the row: out[j] = dotF32(w, x[j], n)
 * bit for bit at either dispatch level (the same lanes, horizontal
 * sum and tail per vector), with w read once for all four.
 */
void dotF32x4(const float *w, const float *const x[4], size_t n,
              float out[4]);

/** sum_i q[i] * x[i] with int8 weights (Q8 row dot, pre-scale). */
float dotQ8(const int8_t *q, const float *x, size_t n);

/**
 * One Q4 group: given 16 packed bytes holding 32 4-bit values
 * (low nibble first), accumulate dot_q += sum q[i]*x[i] and
 * sum_x += sum x[i] over the first `n` values (n <= 32; the last
 * group of a ragged row passes n < 32).
 */
void q4GroupDot(const uint8_t *packed, const float *x, size_t n,
                float &dot_q, float &sum_x);

/*
 * Minibatch dense-layer kernels. Activations and their gradients are
 * laid out [unit][sample]: unit u of sample s is at [u * n + s]. The
 * weights w are row-major (rows x cols), one row per output unit.
 */

/**
 * y[r][s] = b[r] + w[r][0] * x[0][s] + ... + w[r][cols-1] *
 * x[cols-1][s], added left to right with one multiply and one add
 * per term; then y = std::max(0.0f, y) if `relu`.
 */
void linearForwardBatch(const float *w, const float *b, size_t rows,
                        size_t cols, const float *x, size_t n, bool relu,
                        float *y);

/**
 * dx[c][s] = 0.0f + w[0][c] * dy[0][s] + ... + w[rows-1][c] *
 * dy[rows-1][s], added left to right; then dx[c][s] = 0.0f where
 * relu_out[c][s] <= 0.0f, if relu_out is not null (the layer's input
 * came out of a ReLU).
 */
void linearInputGrad(const float *w, size_t rows, size_t cols,
                     const float *dy, size_t n, const float *relu_out,
                     float *dx);

/**
 * Accumulates one minibatch's parameter gradients in sample order:
 * for s = 0..n-1, gw[r][c] += dy[r][s] * x[c][s] and gb[r] +=
 * dy[r][s], where x is the layer's input.
 */
void linearParamGrad(const float *dy, const float *x, size_t rows,
                     size_t cols, size_t n, float *gw, float *gb);

/** Adam hyper-parameters and the step's bias corrections. */
struct AdamCoeffs
{
    double lr, beta1, beta2, eps;
    double bc1, bc2;   ///< 1 - beta^t
    double inv_batch;  ///< 1 / minibatch size
};

/**
 * One Adam step over n parameters, in double per element:
 * g' = g * inv_batch; m = float(beta1 * m + (1 - beta1) * g');
 * v = float(beta2 * v + (1 - beta2) * g' * g');
 * p -= float(lr * (m / bc1) / (sqrt(v / bc2) + eps)).
 * Consumes the gradient: g is zeroed for the next minibatch.
 */
void adamUpdate(float *p, float *m, float *v, float *g, size_t n,
                const AdamCoeffs &a);

} // namespace specee::tensor::simd

#endif // SPECEE_TENSOR_SIMD_HH
