#include "tensor/simd.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "util/logging.hh"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SPECEE_SIMD_X86 1
#include <immintrin.h>
#else
#define SPECEE_SIMD_X86 0
#endif

namespace specee::tensor::simd {

// ---------------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------------

namespace {

float
dotF32Scalar(const float *a, const float *b, size_t n)
{
    float acc = 0.0f;
    for (size_t i = 0; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

float
dotQ8Scalar(const int8_t *q, const float *x, size_t n)
{
    float acc = 0.0f;
    for (size_t i = 0; i < n; ++i)
        acc += static_cast<float>(q[i]) * x[i];
    return acc;
}

void
q4GroupDotScalar(const uint8_t *packed, const float *x, size_t n,
                 float &dot_q, float &sum_x)
{
    float dq = 0.0f, sx = 0.0f;
    for (size_t i = 0; i < n; ++i) {
        const uint8_t qi = (i % 2 == 0) ? (packed[i / 2] & 0x0f)
                                        : (packed[i / 2] >> 4);
        dq += static_cast<float>(qi) * x[i];
        sx += x[i];
    }
    dot_q += dq;
    sum_x += sx;
}

void
linearForwardBatchScalar(const float *w, const float *b, size_t rows,
                         size_t cols, const float *x, size_t n, bool relu,
                         float *y)
{
    for (size_t r = 0; r < rows; ++r) {
        float *yr = y + r * n;
        for (size_t s = 0; s < n; ++s)
            yr[s] = b[r];
        for (size_t c = 0; c < cols; ++c) {
            const float wrc = w[r * cols + c];
            const float *xc = x + c * n;
            for (size_t s = 0; s < n; ++s)
                yr[s] += wrc * xc[s];
        }
        if (relu) {
            for (size_t s = 0; s < n; ++s)
                yr[s] = std::max(0.0f, yr[s]);
        }
    }
}

void
linearInputGradScalar(const float *w, size_t rows, size_t cols,
                      const float *dy, size_t n, const float *relu_out,
                      float *dx)
{
    for (size_t c = 0; c < cols; ++c) {
        float *dxc = dx + c * n;
        for (size_t s = 0; s < n; ++s)
            dxc[s] = 0.0f;
        for (size_t r = 0; r < rows; ++r) {
            const float wrc = w[r * cols + c];
            const float *dyr = dy + r * n;
            for (size_t s = 0; s < n; ++s)
                dxc[s] += wrc * dyr[s];
        }
        if (relu_out != nullptr) {
            for (size_t s = 0; s < n; ++s) {
                if (relu_out[c * n + s] <= 0.0f)
                    dxc[s] = 0.0f;
            }
        }
    }
}

void
linearParamGradScalar(const float *dy, const float *x, size_t rows,
                      size_t cols, size_t n, float *gw, float *gb)
{
    for (size_t r = 0; r < rows; ++r) {
        const float *dyr = dy + r * n;
        for (size_t c = 0; c < cols; ++c) {
            const float *xc = x + c * n;
            float acc = gw[r * cols + c];
            for (size_t s = 0; s < n; ++s)
                acc += dyr[s] * xc[s];
            gw[r * cols + c] = acc;
        }
        float acc = gb[r];
        for (size_t s = 0; s < n; ++s)
            acc += dyr[s];
        gb[r] = acc;
    }
}

/** One parameter's Adam step; the scalar level and the AVX2 tail. */
inline void
adamElem(float &p, float &m, float &v, float &g, const AdamCoeffs &a)
{
    const double gd = g * a.inv_batch;
    const double md = m =
        static_cast<float>(a.beta1 * m + (1.0 - a.beta1) * gd);
    const double vd = v =
        static_cast<float>(a.beta2 * v + (1.0 - a.beta2) * gd * gd);
    const double mhat = md / a.bc1;
    const double vhat = vd / a.bc2;
    p -= static_cast<float>(a.lr * mhat / (std::sqrt(vhat) + a.eps));
    g = 0.0f;
}

// ---------------------------------------------------------------------------
// AVX2 + FMA kernels (per-function target attribute, so the file
// builds without -mavx2 and the scalar path stays usable on any CPU)
// ---------------------------------------------------------------------------

#if SPECEE_SIMD_X86

__attribute__((target("avx2,fma"))) float
hsum256(__m256 v)
{
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
    return _mm_cvtss_f32(s);
}

/**
 * The scalar tail of the AVX2 fp32 dot: acc + a[i] * b[i] for i from
 * `i` to n, in order. dotF32Avx2 and dotF32x4Avx2 both end here, and
 * it is never inlined, so FMA contraction cannot round the two tails
 * differently.
 */
__attribute__((target("avx2,fma"), noinline)) float
dotF32TailAvx2(const float *a, const float *b, size_t i, size_t n,
               float acc)
{
    for (; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

__attribute__((target("avx2,fma"))) float
dotF32Avx2(const float *a, const float *b, size_t n)
{
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(b + i), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                               _mm256_loadu_ps(b + i + 8), acc1);
    }
    for (; i + 8 <= n; i += 8) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(b + i), acc0);
    }
    const float acc = hsum256(_mm256_add_ps(acc0, acc1));
    return i < n ? dotF32TailAvx2(a, b, i, n, acc) : acc;
}

__attribute__((target("avx2,fma"))) void
dotF32x4Avx2(const float *w, const float *const x[4], size_t n,
             float out[4])
{
    // dotF32Avx2's acc0/acc1 lanes, once per vector.
    __m256 acc0[4], acc1[4];
    for (int j = 0; j < 4; ++j)
        acc0[j] = acc1[j] = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m256 w0 = _mm256_loadu_ps(w + i);
        const __m256 w1 = _mm256_loadu_ps(w + i + 8);
        for (int j = 0; j < 4; ++j) {
            acc0[j] = _mm256_fmadd_ps(w0, _mm256_loadu_ps(x[j] + i), acc0[j]);
            acc1[j] =
                _mm256_fmadd_ps(w1, _mm256_loadu_ps(x[j] + i + 8), acc1[j]);
        }
    }
    for (; i + 8 <= n; i += 8) {
        const __m256 w0 = _mm256_loadu_ps(w + i);
        for (int j = 0; j < 4; ++j)
            acc0[j] = _mm256_fmadd_ps(w0, _mm256_loadu_ps(x[j] + i), acc0[j]);
    }
    for (int j = 0; j < 4; ++j) {
        const float acc = hsum256(_mm256_add_ps(acc0[j], acc1[j]));
        out[j] = i < n ? dotF32TailAvx2(w, x[j], i, n, acc) : acc;
    }
}

__attribute__((target("avx2,fma"))) float
dotQ8Avx2(const int8_t *q, const float *x, size_t n)
{
    __m256 acc = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        // Widen 8 int8 weights to fp32 and FMA against x.
        const __m128i q8 =
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(q + i));
        const __m256i q32 = _mm256_cvtepi8_epi32(q8);
        acc = _mm256_fmadd_ps(_mm256_cvtepi32_ps(q32),
                              _mm256_loadu_ps(x + i), acc);
    }
    float r = hsum256(acc);
    for (; i < n; ++i)
        r += static_cast<float>(q[i]) * x[i];
    return r;
}

__attribute__((target("avx2,fma"))) void
q4GroupDotAvx2(const uint8_t *packed, const float *x, size_t n,
               float &dot_q, float &sum_x)
{
    if (n < 32) { // ragged tail group: scalar
        q4GroupDotScalar(packed, x, n, dot_q, sum_x);
        return;
    }
    // 16 packed bytes -> 32 nibbles, values [0,15]. Low nibble is the
    // even (first) element of each byte pair.
    const __m128i raw =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(packed));
    const __m128i mask = _mm_set1_epi8(0x0f);
    const __m128i lo = _mm_and_si128(raw, mask);
    const __m128i hi = _mm_and_si128(_mm_srli_epi16(raw, 4), mask);
    // Interleave back to storage order: lo[0] hi[0] lo[1] hi[1] ...
    const __m128i even = _mm_unpacklo_epi8(lo, hi); // elements 0..15
    const __m128i odd = _mm_unpackhi_epi8(lo, hi);  // elements 16..31
    __m256 dq = _mm256_setzero_ps();
    __m256 sx = _mm256_setzero_ps();
    const __m128i qparts[4] = {
        even, _mm_srli_si128(even, 8), odd, _mm_srli_si128(odd, 8)};
    for (int p = 0; p < 4; ++p) {
        const __m256i q32 = _mm256_cvtepu8_epi32(qparts[p]);
        const __m256 xv = _mm256_loadu_ps(x + 8 * p);
        dq = _mm256_fmadd_ps(_mm256_cvtepi32_ps(q32), xv, dq);
        sx = _mm256_add_ps(sx, xv);
    }
    dot_q += hsum256(dq);
    sum_x += hsum256(sx);
}

// The training kernels below are AVX2 without FMA: GCC would contract
// their multiply + add into an FMA, whose single rounding differs from
// the scalar loop's two. Each vector lane is one sample, output row or
// parameter, computed exactly as the scalar loop computes it.

/** All-ones in the first `len` (1..8) lanes. */
__attribute__((target("avx2"))) inline __m256i
laneMask(size_t len)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(len)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/** Rows r..r+R-1 of linearForwardBatch for the samples under `m`. */
template <int R>
__attribute__((target("avx2"))) inline void
linearForwardRowsAvx2(const float *w, const float *b, size_t r,
                      size_t cols, const float *x, size_t n, size_t s,
                      __m256i m, bool relu, float *y)
{
    __m256 acc[R];
    for (int i = 0; i < R; ++i)
        acc[i] = _mm256_set1_ps(b[r + i]);
    for (size_t c = 0; c < cols; ++c) {
        const __m256 xv = _mm256_maskload_ps(x + c * n + s, m);
        for (int i = 0; i < R; ++i) {
            const __m256 wv = _mm256_set1_ps(w[(r + i) * cols + c]);
            acc[i] = _mm256_add_ps(acc[i], _mm256_mul_ps(wv, xv));
        }
    }
    for (int i = 0; i < R; ++i) {
        // max(v, 0) returns its second operand for NaN and for either
        // zero, as std::max(0.0f, v) does.
        if (relu)
            acc[i] = _mm256_max_ps(acc[i], _mm256_setzero_ps());
        _mm256_maskstore_ps(y + (r + i) * n + s, m, acc[i]);
    }
}

__attribute__((target("avx2"))) void
linearForwardBatchAvx2(const float *w, const float *b, size_t rows,
                       size_t cols, const float *x, size_t n, bool relu,
                       float *y)
{
    for (size_t s = 0; s < n; s += 8) {
        const __m256i m = laneMask(std::min<size_t>(8, n - s));
        size_t r = 0;
        for (; r + 4 <= rows; r += 4)
            linearForwardRowsAvx2<4>(w, b, r, cols, x, n, s, m, relu, y);
        for (; r < rows; ++r)
            linearForwardRowsAvx2<1>(w, b, r, cols, x, n, s, m, relu, y);
    }
}

/** Columns c..c+C-1 of linearInputGrad for the samples under `m`. */
template <int C>
__attribute__((target("avx2"))) inline void
linearInputGradColsAvx2(const float *w, size_t rows, size_t cols,
                        size_t c, const float *dy, size_t n, size_t s,
                        __m256i m, const float *relu_out, float *dx)
{
    __m256 acc[C];
    for (int j = 0; j < C; ++j)
        acc[j] = _mm256_setzero_ps();
    for (size_t r = 0; r < rows; ++r) {
        const __m256 dv = _mm256_maskload_ps(dy + r * n + s, m);
        for (int j = 0; j < C; ++j) {
            const __m256 wv = _mm256_set1_ps(w[r * cols + c + j]);
            acc[j] = _mm256_add_ps(acc[j], _mm256_mul_ps(wv, dv));
        }
    }
    for (int j = 0; j < C; ++j) {
        if (relu_out != nullptr) {
            const __m256 act =
                _mm256_maskload_ps(relu_out + (c + j) * n + s, m);
            const __m256 off =
                _mm256_cmp_ps(act, _mm256_setzero_ps(), _CMP_LE_OQ);
            acc[j] = _mm256_andnot_ps(off, acc[j]);
        }
        _mm256_maskstore_ps(dx + (c + j) * n + s, m, acc[j]);
    }
}

__attribute__((target("avx2"))) void
linearInputGradAvx2(const float *w, size_t rows, size_t cols,
                    const float *dy, size_t n, const float *relu_out,
                    float *dx)
{
    for (size_t s = 0; s < n; s += 8) {
        const __m256i m = laneMask(std::min<size_t>(8, n - s));
        size_t c = 0;
        for (; c + 4 <= cols; c += 4)
            linearInputGradColsAvx2<4>(w, rows, cols, c, dy, n, s, m,
                                       relu_out, dx);
        for (; c < cols; ++c)
            linearInputGradColsAvx2<1>(w, rows, cols, c, dy, n, s, m,
                                       relu_out, dx);
    }
}

/**
 * Loads the 8 x 8 tile a[i * n + j] (rows i < `valid`, the lanes of
 * `m`; zero elsewhere) and transposes it: t[j][i] = a[i * n + j].
 */
__attribute__((target("avx2"))) inline void
loadTransposed8(const float *a, size_t n, size_t valid, __m256i m,
                __m256 t[8])
{
    __m256 row[8];
    for (size_t i = 0; i < 8; ++i)
        row[i] = i < valid ? _mm256_maskload_ps(a + i * n, m)
                           : _mm256_setzero_ps();
    __m256 lo[4], hi[4];
    for (int i = 0; i < 4; ++i) {
        lo[i] = _mm256_unpacklo_ps(row[2 * i], row[2 * i + 1]);
        hi[i] = _mm256_unpackhi_ps(row[2 * i], row[2 * i + 1]);
    }
    __m256 q[8];
    for (int i = 0; i < 2; ++i) {
        q[4 * i + 0] = _mm256_shuffle_ps(lo[2 * i], lo[2 * i + 1], 0x44);
        q[4 * i + 1] = _mm256_shuffle_ps(lo[2 * i], lo[2 * i + 1], 0xee);
        q[4 * i + 2] = _mm256_shuffle_ps(hi[2 * i], hi[2 * i + 1], 0x44);
        q[4 * i + 3] = _mm256_shuffle_ps(hi[2 * i], hi[2 * i + 1], 0xee);
    }
    for (int j = 0; j < 4; ++j) {
        t[j] = _mm256_permute2f128_ps(q[j], q[4 + j], 0x20);
        t[4 + j] = _mm256_permute2f128_ps(q[j], q[4 + j], 0x31);
    }
}

/**
 * Rows r..r+R-1 of linearParamGrad's gw, for the columns under `cm`
 * and samples s..s+ns-1, given their inputs transposed: t[j] holds
 * sample s+j's inputs for those columns.
 */
template <int R>
__attribute__((target("avx2"))) inline void
linearParamGradRowsAvx2(const float *dy, const __m256 t[8], size_t ns,
                        size_t r, size_t n, size_t s, size_t cols,
                        size_t c, __m256i cm, float *gw)
{
    __m256 acc[R];
    for (int i = 0; i < R; ++i)
        acc[i] = _mm256_maskload_ps(gw + (r + i) * cols + c, cm);
    for (size_t j = 0; j < ns; ++j) {
        for (int i = 0; i < R; ++i) {
            const __m256 gv = _mm256_set1_ps(dy[(r + i) * n + s + j]);
            acc[i] = _mm256_add_ps(acc[i], _mm256_mul_ps(gv, t[j]));
        }
    }
    for (int i = 0; i < R; ++i)
        _mm256_maskstore_ps(gw + (r + i) * cols + c, cm, acc[i]);
}

__attribute__((target("avx2"))) void
linearParamGradAvx2(const float *dy, const float *x, size_t rows,
                    size_t cols, size_t n, float *gw, float *gb)
{
    __m256 t[8];
    // gw, vectorized across columns: each 8 x 8 tile of x becomes
    // eight sample vectors, added to every row in sample order.
    for (size_t c = 0; c < cols; c += 8) {
        const size_t nc = std::min<size_t>(8, cols - c);
        const __m256i cm = laneMask(nc);
        for (size_t s = 0; s < n; s += 8) {
            const size_t ns = std::min<size_t>(8, n - s);
            loadTransposed8(x + c * n + s, n, nc, laneMask(ns), t);
            size_t r = 0;
            for (; r + 4 <= rows; r += 4)
                linearParamGradRowsAvx2<4>(dy, t, ns, r, n, s, cols, c, cm,
                                           gw);
            for (; r < rows; ++r)
                linearParamGradRowsAvx2<1>(dy, t, ns, r, n, s, cols, c, cm,
                                           gw);
        }
    }
    // gb, vectorized across rows the same way.
    for (size_t r = 0; r < rows; r += 8) {
        const size_t nr = std::min<size_t>(8, rows - r);
        const __m256i rm = laneMask(nr);
        __m256 acc = _mm256_maskload_ps(gb + r, rm);
        for (size_t s = 0; s < n; s += 8) {
            const size_t ns = std::min<size_t>(8, n - s);
            loadTransposed8(dy + r * n + s, n, nr, laneMask(ns), t);
            for (size_t j = 0; j < ns; ++j)
                acc = _mm256_add_ps(acc, t[j]);
        }
        _mm256_maskstore_ps(gb + r, rm, acc);
    }
}

__attribute__((target("avx2"))) void
adamUpdateAvx2(float *p, float *m, float *v, float *g, size_t n,
               const AdamCoeffs &a)
{
    const __m256d beta1 = _mm256_set1_pd(a.beta1);
    const __m256d beta2 = _mm256_set1_pd(a.beta2);
    const __m256d one_m_beta1 = _mm256_set1_pd(1.0 - a.beta1);
    const __m256d one_m_beta2 = _mm256_set1_pd(1.0 - a.beta2);
    const __m256d bc1 = _mm256_set1_pd(a.bc1);
    const __m256d bc2 = _mm256_set1_pd(a.bc2);
    const __m256d lr = _mm256_set1_pd(a.lr);
    const __m256d eps = _mm256_set1_pd(a.eps);
    const __m256d inv_batch = _mm256_set1_pd(a.inv_batch);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d gd =
            _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(g + i)), inv_batch);
        const __m256d m0 = _mm256_cvtps_pd(_mm_loadu_ps(m + i));
        const __m256d v0 = _mm256_cvtps_pd(_mm_loadu_ps(v + i));
        const __m256d gg =
            _mm256_mul_pd(_mm256_mul_pd(one_m_beta2, gd), gd);
        const __m128 mf = _mm256_cvtpd_ps(_mm256_add_pd(
            _mm256_mul_pd(beta1, m0), _mm256_mul_pd(one_m_beta1, gd)));
        const __m128 vf =
            _mm256_cvtpd_ps(_mm256_add_pd(_mm256_mul_pd(beta2, v0), gg));
        _mm_storeu_ps(m + i, mf);
        _mm_storeu_ps(v + i, vf);
        const __m256d mhat = _mm256_div_pd(_mm256_cvtps_pd(mf), bc1);
        const __m256d vhat = _mm256_div_pd(_mm256_cvtps_pd(vf), bc2);
        const __m256d step =
            _mm256_div_pd(_mm256_mul_pd(lr, mhat),
                          _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
        _mm_storeu_ps(p + i, _mm_sub_ps(_mm_loadu_ps(p + i),
                                        _mm256_cvtpd_ps(step)));
        _mm_storeu_ps(g + i, _mm_setzero_ps());
    }
    for (; i < n; ++i)
        adamElem(p[i], m[i], v[i], g[i], a);
}

#endif // SPECEE_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/** Resolved level; -1 until first use. Relaxed atomics: resolution is
 *  idempotent, so a benign first-use race resolves to the same value. */
std::atomic<int> g_level{-1};

Level
resolveLevel()
{
    const char *env = std::getenv("SPECEE_SIMD");
    if (env != nullptr && std::strcmp(env, "scalar") == 0)
        return Level::Scalar;
    if (env != nullptr && std::strcmp(env, "avx2") == 0) {
        if (detectLevel() != Level::Avx2) {
            specee_warn("SPECEE_SIMD=avx2 but CPU lacks AVX2; "
                        "using scalar kernels");
            return Level::Scalar;
        }
        return Level::Avx2;
    }
    if (env != nullptr && std::strcmp(env, "auto") != 0)
        specee_warn("unknown SPECEE_SIMD value '%s' (want scalar/avx2/"
                    "auto); auto-detecting", env);
    return detectLevel();
}

} // namespace

const char *
levelName(Level lvl)
{
    return lvl == Level::Avx2 ? "avx2" : "scalar";
}

Level
detectLevel()
{
#if SPECEE_SIMD_X86
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return Level::Avx2;
#endif
    return Level::Scalar;
}

Level
activeLevel()
{
    int lvl = g_level.load(std::memory_order_relaxed);
    if (lvl < 0) {
        lvl = static_cast<int>(resolveLevel());
        g_level.store(lvl, std::memory_order_relaxed);
    }
    return static_cast<Level>(lvl);
}

void
setLevel(Level lvl)
{
    if (lvl == Level::Avx2 && detectLevel() != Level::Avx2) {
        specee_warn("AVX2 kernels unavailable on this CPU; "
                    "using scalar");
        lvl = Level::Scalar;
    }
    g_level.store(static_cast<int>(lvl), std::memory_order_relaxed);
}

float
dotF32(const float *a, const float *b, size_t n)
{
#if SPECEE_SIMD_X86
    if (activeLevel() == Level::Avx2)
        return dotF32Avx2(a, b, n);
#endif
    return dotF32Scalar(a, b, n);
}

void
dotF32x4(const float *w, const float *const x[4], size_t n, float out[4])
{
#if SPECEE_SIMD_X86
    if (activeLevel() == Level::Avx2) {
        dotF32x4Avx2(w, x, n, out);
        return;
    }
#endif
    for (int j = 0; j < 4; ++j)
        out[j] = dotF32Scalar(w, x[j], n);
}

float
dotQ8(const int8_t *q, const float *x, size_t n)
{
#if SPECEE_SIMD_X86
    if (activeLevel() == Level::Avx2)
        return dotQ8Avx2(q, x, n);
#endif
    return dotQ8Scalar(q, x, n);
}

void
q4GroupDot(const uint8_t *packed, const float *x, size_t n,
           float &dot_q, float &sum_x)
{
#if SPECEE_SIMD_X86
    if (activeLevel() == Level::Avx2) {
        q4GroupDotAvx2(packed, x, n, dot_q, sum_x);
        return;
    }
#endif
    q4GroupDotScalar(packed, x, n, dot_q, sum_x);
}

void
linearForwardBatch(const float *w, const float *b, size_t rows,
                   size_t cols, const float *x, size_t n, bool relu,
                   float *y)
{
#if SPECEE_SIMD_X86
    if (activeLevel() == Level::Avx2) {
        linearForwardBatchAvx2(w, b, rows, cols, x, n, relu, y);
        return;
    }
#endif
    linearForwardBatchScalar(w, b, rows, cols, x, n, relu, y);
}

void
linearInputGrad(const float *w, size_t rows, size_t cols, const float *dy,
                size_t n, const float *relu_out, float *dx)
{
#if SPECEE_SIMD_X86
    if (activeLevel() == Level::Avx2) {
        linearInputGradAvx2(w, rows, cols, dy, n, relu_out, dx);
        return;
    }
#endif
    linearInputGradScalar(w, rows, cols, dy, n, relu_out, dx);
}

void
linearParamGrad(const float *dy, const float *x, size_t rows, size_t cols,
                size_t n, float *gw, float *gb)
{
#if SPECEE_SIMD_X86
    if (activeLevel() == Level::Avx2) {
        linearParamGradAvx2(dy, x, rows, cols, n, gw, gb);
        return;
    }
#endif
    linearParamGradScalar(dy, x, rows, cols, n, gw, gb);
}

void
adamUpdate(float *p, float *m, float *v, float *g, size_t n,
           const AdamCoeffs &a)
{
#if SPECEE_SIMD_X86
    if (activeLevel() == Level::Avx2) {
        adamUpdateAvx2(p, m, v, g, n, a);
        return;
    }
#endif
    for (size_t i = 0; i < n; ++i)
        adamElem(p[i], m[i], v[i], g[i], a);
}

} // namespace specee::tensor::simd
