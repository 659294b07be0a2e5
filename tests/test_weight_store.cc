/**
 * @file
 * WeightStore backend tests: q8/q4 parity with fp32 (gemv, gemvRows,
 * rowDot, ragged q4 groups), fp32 backend bit-identity with the raw
 * Matrix kernels, byte footprints, the shape and range checks every
 * backend makes, SIMD-vs-scalar dispatch equivalence for every
 * inner-product kernel, and a digest pinning quantized-engine decode
 * bit for bit under each dispatch level.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>

#include "engines/engine.hh"
#include "model/weights.hh"
#include "tensor/kernels.hh"
#include "tensor/simd.hh"
#include "tensor/weight_store.hh"
#include "test_util.hh"
#include "util/rng.hh"

using namespace specee;
using namespace specee::tensor;

namespace {

Matrix
randomMatrix(size_t r, size_t c, uint64_t seed, float scale = 1.0f)
{
    Matrix m(r, c);
    Rng rng(seed);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(rng.normal(0.0, scale));
    return m;
}

Vec
randomVec(size_t n, uint64_t seed)
{
    Vec v(n);
    Rng rng(seed);
    for (auto &x : v)
        x = static_cast<float>(rng.normal());
    return v;
}

/** Restores the dispatch level a test forced (the suite may run
 *  under a SPECEE_SIMD override, so restore what was active). */
struct SimdLevelGuard
{
    simd::Level prev = simd::activeLevel();
    ~SimdLevelGuard() { simd::setLevel(prev); }
};

constexpr WeightBackend kAll[] = {WeightBackend::Fp32, WeightBackend::Q8,
                                  WeightBackend::Q4};

} // namespace

TEST(WeightBackend, NamesRoundTrip)
{
    for (WeightBackend b : kAll)
        EXPECT_EQ(parseWeightBackend(weightBackendName(b)), b);
    EXPECT_EQ(parseWeightBackend("int8"), WeightBackend::Q8);
    EXPECT_EQ(parseWeightBackend("awq"), WeightBackend::Q4);
}

TEST(WeightBackend, CompressionOrdering)
{
    EXPECT_DOUBLE_EQ(weightCompression(WeightBackend::Fp32), 1.0);
    EXPECT_DOUBLE_EQ(weightCompression(WeightBackend::Q8), 0.5);
    EXPECT_NEAR(weightCompression(WeightBackend::Q4), 4.5 / 16.0, 1e-12);
}

TEST(WeightStore, Fp32GemvBitIdenticalToMatrixKernels)
{
    // The fp32 store must be a zero-cost veneer over the raw kernels:
    // every result bit-identical, so threading WeightStore through
    // the model stack cannot change fp32 engine output.
    auto m = randomMatrix(33, 70, 1);
    auto store = makeWeightStore(m, WeightBackend::Fp32);
    auto x = randomVec(70, 2);

    Vec y_ref(33), y_store(33);
    gemv(m, x, y_ref);
    store->gemv(x, y_store);
    for (size_t i = 0; i < y_ref.size(); ++i)
        EXPECT_EQ(y_ref[i], y_store[i]) << i;

    std::vector<int> rows = {0, 5, 32, 17};
    Vec s_ref(rows.size()), s_store(rows.size());
    gemvRows(m, rows, x, s_ref);
    store->gemvRows(rows, x, s_store);
    for (size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(s_ref[i], s_store[i]) << i;

    EXPECT_EQ(store->rowDot(7, x), dot(m.row(7), x));

    Vec row(70);
    store->copyRow(12, row);
    for (size_t c = 0; c < 70; ++c)
        EXPECT_EQ(row[c], m.at(12, c));
}

TEST(WeightStore, QuantizedGemvTracksFp32)
{
    // Includes a ragged q4 shape (cols not a multiple of the group).
    const std::pair<int, int> shapes[] = {{8, 64}, {16, 40}, {5, 33}};
    for (auto [r, c] : shapes) {
        auto m = randomMatrix(static_cast<size_t>(r),
                              static_cast<size_t>(c), 3, 0.05f);
        auto x = randomVec(static_cast<size_t>(c), 4);
        Vec y_fp(static_cast<size_t>(r));
        gemv(m, x, y_fp);
        for (WeightBackend b : {WeightBackend::Q8, WeightBackend::Q4}) {
            auto store = makeWeightStore(m, b);
            Vec y(static_cast<size_t>(r));
            store->gemv(x, y);
            // Per-output tolerance scales with the quantization step
            // (half an lsb of the 0.05-sd weights) accumulated over
            // the reduction length, with 2x headroom.
            const float tol = (b == WeightBackend::Q8 ? 0.004f : 0.04f) *
                              static_cast<float>(c) * 0.05f;
            for (size_t i = 0; i < y.size(); ++i)
                EXPECT_NEAR(y[i], y_fp[i], tol)
                    << weightBackendName(b) << " " << r << "x" << c
                    << " row " << i;
        }
    }
}

TEST(WeightStore, GemvRowsAndRowDotMatchGemvPerBackend)
{
    auto m = randomMatrix(24, 48, 5);
    auto x = randomVec(48, 6);
    const std::vector<int> rows = {23, 0, 11, 7};
    for (WeightBackend b : kAll) {
        auto store = makeWeightStore(m, b);
        Vec full(24);
        store->gemv(x, full);
        Vec sliced(rows.size());
        store->gemvRows(rows, x, sliced);
        for (size_t i = 0; i < rows.size(); ++i) {
            EXPECT_FLOAT_EQ(sliced[i],
                            full[static_cast<size_t>(rows[i])])
                << weightBackendName(b);
            EXPECT_FLOAT_EQ(
                store->rowDot(static_cast<size_t>(rows[i]), x),
                full[static_cast<size_t>(rows[i])])
                << weightBackendName(b);
        }
    }
}

// Batching vectors changes how often a weight row is read, never a
// result: every row of gemvBatch equals gemv on that vector, bit for
// bit, at 1 to 9 vectors (whole groups of four and ragged rests). The
// 70-wide rows end in a tail under AVX2 and a ragged Q4 group.
TEST(WeightStore, GemvBatchEqualsGemvPerVector)
{
    SimdLevelGuard guard;
    const Matrix m = randomMatrix(13, 70, 71, 0.1f);
    const Vec xs = randomVec(9 * 70, 72);
    for (simd::Level level : {simd::Level::Scalar, simd::detectLevel()}) {
        simd::setLevel(level);
        for (WeightBackend b : kAll) {
            const auto store = makeWeightStore(m, b);
            for (size_t k = 1; k <= 9; ++k) {
                Vec batch(k * 13);
                store->gemvBatch(CSpan(xs).first(k * 70), batch);
                for (size_t j = 0; j < k; ++j) {
                    Vec one(13);
                    store->gemv(CSpan(xs).subspan(j * 70, 70), one);
                    EXPECT_EQ(std::memcmp(batch.data() + j * 13, one.data(),
                                          13 * sizeof(float)),
                              0)
                        << simd::levelName(level) << " "
                        << weightBackendName(b) << " k=" << k << " j=" << j;
                }
            }
        }
    }
}

TEST(WeightStore, CopyRowAndAtAgreeAcrossBackends)
{
    auto m = randomMatrix(9, 40, 7);
    for (WeightBackend b : kAll) {
        auto store = makeWeightStore(m, b);
        Vec row(40);
        store->copyRow(3, row);
        for (size_t c = 0; c < 40; ++c)
            EXPECT_FLOAT_EQ(row[c], store->at(3, c))
                << weightBackendName(b);
    }
}

TEST(WeightStore, AddScaledColumnMatchesDense)
{
    auto m = randomMatrix(12, 36, 8, 0.05f);
    for (WeightBackend b : kAll) {
        auto store = makeWeightStore(m, b);
        Vec out(12, 0.0f);
        store->addScaledColumn(5, 2.0f, out);
        for (size_t r = 0; r < 12; ++r)
            EXPECT_NEAR(out[r], 2.0f * store->at(r, 5), 1e-5f)
                << weightBackendName(b);
    }
}

TEST(WeightStoreDeathTest, EveryBackendChecksShapesAndRanges)
{
    // 8 x 32: row 8 and column 32 are one past the end.
    Vec x(32), x_short(31), y(8), y_long(9), one(1), two(2), row(32);
    const struct
    {
        std::function<void(const WeightStore &)> call;
        const char *panic;
    } cases[] = {
        {[&](auto &s) { s.gemv(x_short, y); }, "gemv shape mismatch"},
        {[&](auto &s) { s.gemv(x, y_long); }, "gemv shape mismatch"},
        {[&](auto &s) { s.gemvRows({0, 1}, x, one); }, "shape mismatch"},
        {[&](auto &s) { s.gemvRows({0, 8}, x, two); }, "out of range"},
        {[&](auto &s) { s.gemvRows({-1}, x, one); }, "out of range"},
        {[&](auto &s) { s.at(8, 0); }, "out of range"},
        {[&](auto &s) { s.at(0, 32); }, "out of range"},
        {[&](auto &s) { s.copyRow(8, row); }, "out of range"},
        {[&](auto &s) { s.addScaledColumn(32, 1.0f, y); }, "out of range"},
    };
    auto m = randomMatrix(8, 32, 13);
    for (WeightBackend b : kAll) {
        auto store = makeWeightStore(m, b);
        for (size_t i = 0; i < std::size(cases); ++i) {
            SCOPED_TRACE(std::string(weightBackendName(b)) + " case " +
                         std::to_string(i));
            EXPECT_DEATH(cases[i].call(*store), cases[i].panic);
        }
    }
}

TEST(WeightStore, ByteSizeShrinksWithBackend)
{
    auto m = randomMatrix(64, 256, 9);
    auto fp32 = makeWeightStore(m, WeightBackend::Fp32);
    auto q8 = makeWeightStore(m, WeightBackend::Q8);
    auto q4 = makeWeightStore(m, WeightBackend::Q4);
    EXPECT_LT(q4->byteSize(), q8->byteSize());
    EXPECT_LT(q8->byteSize(), fp32->byteSize());
    EXPECT_EQ(fp32->byteSize(), m.byteSize());
}

// --- SIMD dispatch parity --------------------------------------------------

TEST(Simd, ActiveLevelIsSupported)
{
    EXPECT_LE(static_cast<int>(simd::activeLevel()),
              static_cast<int>(simd::detectLevel()));
    EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");
    EXPECT_STREQ(simd::levelName(simd::Level::Avx2), "avx2");
}

TEST(Simd, DotF32MatchesScalarWithinRounding)
{
    SimdLevelGuard guard;
    const size_t sizes[] = {1, 7, 8, 15, 16, 31, 64, 1000};
    for (size_t n : sizes) {
        auto a = randomVec(n, 10 + n);
        auto b = randomVec(n, 20 + n);
        simd::setLevel(simd::Level::Scalar);
        const float ref = simd::dotF32(a.data(), b.data(), n);
        simd::setLevel(simd::detectLevel());
        const float fast = simd::dotF32(a.data(), b.data(), n);
        // Reassociated summation: allow rounding-level divergence.
        const float tol =
            1e-5f * static_cast<float>(n) + 1e-5f * std::fabs(ref);
        EXPECT_NEAR(fast, ref, tol) << "n=" << n;
    }
}

// The batched GEMV's kernel must give every vector dotF32's exact
// result: same lanes, same horizontal sum, same tail. The sizes cover
// every loop (16-wide, 8-wide, tail) alone and together, and the
// start pointers are one float off a 32-byte boundary.
TEST(Simd, DotF32x4EqualsDotF32Bitwise)
{
    SimdLevelGuard guard;
    for (simd::Level level : {simd::Level::Scalar, simd::detectLevel()}) {
        simd::setLevel(level);
        for (size_t n : {0, 1, 7, 8, 12, 15, 16, 17, 192, 200, 516}) {
            const Vec w = randomVec(n + 1, 50 + n);
            Vec xs[4];
            const float *x[4];
            for (size_t j = 0; j < 4; ++j) {
                xs[j] = randomVec(n + 1, 60 + 4 * n + j);
                x[j] = xs[j].data() + 1;
            }
            float out[4];
            simd::dotF32x4(w.data() + 1, x, n, out);
            for (size_t j = 0; j < 4; ++j) {
                const float want = simd::dotF32(w.data() + 1, x[j], n);
                EXPECT_EQ(std::memcmp(&out[j], &want, sizeof(float)), 0)
                    << simd::levelName(level) << " n=" << n << " j=" << j;
            }
        }
    }
}

TEST(Simd, DotQ8MatchesScalarWithinRounding)
{
    SimdLevelGuard guard;
    Rng rng(31);
    const size_t sizes[] = {1, 8, 13, 32, 100};
    for (size_t n : sizes) {
        std::vector<int8_t> q(n);
        for (auto &v : q)
            v = static_cast<int8_t>(rng.uniformInt(-127, 127));
        auto x = randomVec(n, 40 + n);
        simd::setLevel(simd::Level::Scalar);
        const float ref = simd::dotQ8(q.data(), x.data(), n);
        simd::setLevel(simd::detectLevel());
        const float fast = simd::dotQ8(q.data(), x.data(), n);
        EXPECT_NEAR(fast, ref, 1e-3f * static_cast<float>(n) + 1e-4f)
            << "n=" << n;
    }
}

TEST(Simd, QuantizedGemvEqualAcrossDispatchPaths)
{
    SimdLevelGuard guard;
    // Whole-kernel parity including the packed-nibble group dot, on a
    // ragged shape so the AVX2 path exercises its scalar tail.
    auto m = randomMatrix(16, 70, 11, 0.1f);
    auto x = randomVec(70, 12);
    for (WeightBackend b : {WeightBackend::Q8, WeightBackend::Q4}) {
        auto store = makeWeightStore(m, b);
        Vec y_scalar(16), y_fast(16);
        simd::setLevel(simd::Level::Scalar);
        store->gemv(x, y_scalar);
        simd::setLevel(simd::detectLevel());
        store->gemv(x, y_fast);
        for (size_t i = 0; i < 16; ++i)
            EXPECT_NEAR(y_fast[i], y_scalar[i],
                        1e-3f + 1e-3f * std::fabs(y_scalar[i]))
                << weightBackendName(b) << " row " << i;
    }
}

// --- generated weights, pinned ---------------------------------------------

// Pins every generated weight of two model configs. The generator
// fills its matrices in parallel from checkpoints of one stream and
// must reproduce the sequential draw.
TEST(Weights, GeneratedValuesArePinned)
{
    const auto digest = [](const model::ModelConfig &cfg) {
        const model::Weights w(cfg, WeightBackend::Fp32,
                               WeightBackend::Fp32);
        testutil::Digest d;
        const auto store = [&](const WeightStore &s) {
            Vec row(s.cols());
            for (size_t r = 0; r < s.rows(); ++r) {
                s.copyRow(r, row);
                d.span(row);
            }
        };
        store(w.embedding());
        for (int l = 0; l < w.nLayers(); ++l) {
            const model::LayerWeights &lw = w.layer(l);
            for (const auto *s : {&lw.wq, &lw.wk, &lw.wv, &lw.wo,
                                  &lw.w_gate, &lw.w_up, &lw.w_down})
                store(**s);
            d.span(lw.rms_attn);
            d.span(lw.rms_ffn);
        }
        d.span(w.rmsFinal());
        return d.value();
    };
    EXPECT_EQ(digest(model::ModelConfig::tiny()), 0x8e7543fffb2b82a2ull);
    EXPECT_EQ(digest(model::ModelConfig::llama2_7b()), 0x5b1b655bb1e094b8ull);
}

// --- quantized kernels and decode, pinned ----------------------------------

// Pins every output of the quantized stores bit for bit, under
// whichever SIMD level the suite runs: the tolerance tests above would
// not see a change that moves only the rounding. The shape has no
// ragged tail, because the AVX2 kernels' scalar tails round
// differently at different optimization levels.
TEST(WeightStore, QuantizedKernelsAreBitStable)
{
    auto m = randomMatrix(16, 64, 14, 0.1f);
    auto x = randomVec(64, 15);
    testutil::Digest d;
    for (WeightBackend b : {WeightBackend::Q8, WeightBackend::Q4}) {
        auto store = makeWeightStore(m, b);
        Vec y(16), sliced(3), row(64), col(16, 0.0f);
        store->gemv(x, y);
        store->gemvRows({15, 0, 7}, x, sliced);
        store->copyRow(9, row);
        store->addScaledColumn(63, 0.5f, col);
        for (const Vec &v : {y, sliced, row, col})
            d.span(v);
        d.pod(store->byteSize());
    }
    EXPECT_EQ(d.value(), testutil::pinned(0xf4b4f38c4d5d4b43ull,
                                          0xb1a4d3938e2e6acfull));
}

// Pins the tokens, exit layers and modeled seconds of SpecEE decode on
// every quantized weight format, end to end through the model stack.
TEST(WeightStore, QuantizedDecodeIsBitStable)
{
    const auto &pipe = testutil::tinyPipeline();
    const auto w = pipe.makeWorkload("MT-Bench", testutil::smallGen());
    const engines::EngineConfig configs[] = {
        engines::EngineConfig::huggingFace().withSpecEE().withWeightBackend(
            WeightBackend::Q8),
        engines::EngineConfig::huggingFace().withSpecEE().withWeightBackend(
            WeightBackend::Q4),
        engines::EngineConfig::awq().withSpecEE(),
    };
    testutil::Digest d;
    for (const auto &cfg : configs) {
        auto engine = pipe.makeEngine(cfg, hw::HardwareSpec::a100());
        const auto r = engine->run(w, 11);
        for (const auto &e : r.emissions) {
            d.pod(e.tokens.size());
            for (int t : e.tokens)
                d.pod(t);
            for (int l : e.exit_layers)
                d.pod(l);
        }
        d.pod(r.stats.modeled_time_s);
    }
    // Both dispatch levels emit the same bits on this workload.
    EXPECT_EQ(d.value(), testutil::pinned(0xbd9eb41ee815cd57ull,
                                          0xbd9eb41ee815cd57ull));
}
