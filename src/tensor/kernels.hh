/**
 * @file
 * Math kernels used by the functional LLM simulator.
 *
 * Correctness-first kernels whose hot inner products (gemv/gemvBatch/
 * gemvRows/dot) route through the runtime-dispatched SIMD loops in
 * tensor/simd.hh (AVX2 when the CPU has it, scalar otherwise);
 * paper-figure latencies are produced by the analytic hw::CostModel,
 * not by timing these loops.
 */

#ifndef SPECEE_TENSOR_KERNELS_HH
#define SPECEE_TENSOR_KERNELS_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "tensor/matrix.hh"

namespace specee::tensor {

/** y = W x with W (m x n), x (n), y (m). */
void gemv(const Matrix &w, CSpan x, Span y);

/**
 * Batched GEMV: row j of y = W times row j of x, for x (k x n) and
 * y (k x m), both row-major. Each weight row is read once for every
 * four vectors, and every output equals gemv()'s bit for bit.
 */
void gemvBatch(const Matrix &w, CSpan x, Span y);

/** y = W^T x with W (m x n), x (m), y (n). */
void gemvT(const Matrix &w, CSpan x, Span y);

/**
 * Sliced GEMV: y[i] = W.row(rows[i]) . x — the speculative LM head.
 * Only |rows| rows of W are touched (the paper's ~10^4x search-space
 * reduction, Fig. 2(b)).
 */
void gemvRows(const Matrix &w, const std::vector<int> &rows, CSpan x,
              Span y);

/**
 * out = A B with A (m x k), B (k x n), out (m x n).
 * @pre `out` must not alias `a` or `b` (asserted): out is resized and
 * written in place, which would clobber an aliased operand.
 */
void gemm(const Matrix &a, const Matrix &b, Matrix &out);

/** Dot product (sizes must match). */
float dot(CSpan a, CSpan b);

/**
 * In-place numerically-stable softmax. A fully -inf input (fully
 * masked row) yields the uniform distribution instead of NaN.
 */
void softmax(Span x);

/** Softmax restricted to the first n entries of x. */
void softmax(Span x, size_t n);

/** Index of the maximum element. @pre x non-empty */
size_t argmax(CSpan x);

/**
 * Top-k (index, value) pairs in descending value order. Equal values
 * are ordered by ascending index, so the result is identical across
 * stdlib implementations (draft-token selection depends on it).
 */
std::vector<std::pair<int, float>> topk(CSpan x, size_t k);

/**
 * topk() into a caller's vector, whose capacity is kept across calls
 * (out's prior contents are discarded).
 */
void topk(CSpan x, size_t k, std::vector<std::pair<int, float>> &out);

/** RMSNorm: out = x / rms(x) * weight. */
void rmsnorm(CSpan x, CSpan weight, Span out, float eps = 1e-5f);

/** In-place SiLU activation x * sigmoid(x). */
void silu(Span x);

/** In-place ReLU. */
void relu(Span x);

/** Numerically-stable scalar sigmoid. */
float sigmoid(float x);

/** a += b. */
void addInplace(Span a, CSpan b);

/** x *= s. */
void scaleInplace(Span x, float s);

/** L2 norm. */
float norm2(CSpan x);

/**
 * Rotary position embedding applied in-place to one head-major vector
 * (pairs of adjacent dims rotated, llama convention with interleaved
 * halves per head).
 *
 * @param x      vector of length n_heads * head_dim
 * @param n_heads number of attention heads
 * @param head_dim per-head dimension (must be even)
 * @param pos    absolute token position
 */
void rope(Span x, size_t n_heads, size_t head_dim, size_t pos,
          float theta = 10000.0f);

} // namespace specee::tensor

#endif // SPECEE_TENSOR_KERNELS_HH
