/**
 * @file
 * Kernel micro-benchmarks (google-benchmark): the functional-kernel
 * costs behind the paper's claims — full vs sliced LM head (Fig. 2b),
 * the early-exit label test against a full head, grouped hyper-token
 * GEMV (Fig. 13), Q4 vs fp32 GEMV (AWQ), the
 * batched fp32 GEMV of block decode, the predictor MLP's inference and
 * training, one decoder layer per row of a block, and the sparse FFN
 * (PowerInfer).
 */

#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/predictor.hh"
#include "model/decoder_layer.hh"
#include "model/ffn.hh"
#include "model/kv_cache.hh"
#include "model/lm_head.hh"
#include "model/weights.hh"
#include "nn/mlp.hh"
#include "tensor/kernels.hh"
#include "tensor/quant.hh"
#include "util/rng.hh"

using namespace specee;

namespace {

model::ModelConfig
simCfg()
{
    return model::ModelConfig::llama2_7b();
}

tensor::Vec
randomVec(int n, uint64_t seed)
{
    tensor::Vec v(static_cast<size_t>(n));
    Rng rng(seed);
    for (auto &x : v)
        x = static_cast<float>(rng.normal());
    return v;
}

struct HeadFixture
{
    model::ModelConfig cfg = simCfg();
    model::Weights w{cfg, tensor::WeightBackend::Fp32,
                     tensor::WeightBackend::Fp32};
    model::LmHead head{w.embedding(), w.rmsFinal()};
    tensor::Vec hidden = randomVec(cfg.sim.hidden, 1);
};

HeadFixture &
headFixture()
{
    static HeadFixture f;
    return f;
}

} // namespace

static void
BM_LmHeadFull(benchmark::State &state)
{
    auto &f = headFixture();
    tensor::Vec logits(static_cast<size_t>(f.cfg.sim.vocab));
    for (auto _ : state) {
        f.head.full(f.hidden, logits);
        benchmark::DoNotOptimize(logits.data());
    }
    state.SetItemsProcessed(state.iterations() * f.cfg.sim.vocab);
}
BENCHMARK(BM_LmHeadFull);

static void
BM_LmHeadSliced(benchmark::State &state)
{
    auto &f = headFixture();
    const std::vector<int> spec = {17, 290, 1034, 4000};
    tensor::Vec logits(spec.size());
    for (auto _ : state) {
        f.head.sliced(f.hidden, spec, logits);
        benchmark::DoNotOptimize(logits.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(spec.size()));
}
BENCHMARK(BM_LmHeadSliced);

// The exit label's question, "is token t the full head's argmax?",
// answered by the full head plus an argmax scan (the baseline) and by
// LmHead::isArgmax. Arg 1 asks about the argmax itself, which reads
// every row either way; arg 0 about a mid-ranked token, where
// isArgmax stops at the first row that outscores it. Items are tests.
static int
argmaxQuestionToken(const benchmark::State &state)
{
    auto &f = headFixture();
    const int best = f.head.argmaxToken(f.hidden);
    return state.range(0) == 1 ? best
                               : (best + f.cfg.sim.vocab / 2) %
                                     f.cfg.sim.vocab;
}

static void
BM_LmHeadArgmaxFull(benchmark::State &state)
{
    auto &f = headFixture();
    const int token = argmaxQuestionToken(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(f.head.argmaxToken(f.hidden) == token);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LmHeadArgmaxFull)->Arg(0)->Arg(1);

static void
BM_LmHeadArgmaxTest(benchmark::State &state)
{
    auto &f = headFixture();
    const int token = argmaxQuestionToken(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(f.head.isArgmax(f.hidden, token));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LmHeadArgmaxTest)->Arg(0)->Arg(1);

static void
BM_LmHeadGrouped(benchmark::State &state)
{
    auto &f = headFixture();
    const int n_paths = static_cast<int>(state.range(0));
    std::vector<tensor::Vec> hiddens_storage;
    std::vector<tensor::CSpan> hiddens;
    std::vector<std::vector<int>> groups;
    for (int p = 0; p < n_paths; ++p) {
        hiddens_storage.push_back(
            randomVec(f.cfg.sim.hidden, 100 + static_cast<uint64_t>(p)));
        groups.push_back({p, p + 10, p + 20, p + 30});
    }
    for (auto &h : hiddens_storage)
        hiddens.push_back(h);
    std::vector<tensor::Vec> out;
    for (auto _ : state) {
        f.head.grouped(hiddens, groups, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_LmHeadGrouped)->Arg(2)->Arg(4)->Arg(8);

static void
BM_GemvFp32(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    tensor::Matrix w(static_cast<size_t>(n), static_cast<size_t>(n));
    Rng rng(2);
    for (size_t i = 0; i < w.size(); ++i)
        w.data()[i] = static_cast<float>(rng.normal());
    auto x = randomVec(n, 3);
    tensor::Vec y(static_cast<size_t>(n));
    for (auto _ : state) {
        tensor::gemv(w, x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetBytesProcessed(state.iterations() * w.byteSize());
}
BENCHMARK(BM_GemvFp32)->Arg(192)->Arg(512);

// gemvBatch over k vectors of 192 on a rows x 192 matrix (the sim
// llama2-7b attention and gate/up shapes). k = 1 runs gemv's kernel;
// items/s against k = 4 and 36 is the speedup of reading each weight
// row once per four vectors.
static void
BM_GemvFp32Batch(benchmark::State &state)
{
    const auto rows = static_cast<size_t>(state.range(0));
    const auto k = static_cast<size_t>(state.range(1));
    constexpr size_t kCols = 192;
    tensor::Matrix w(rows, kCols);
    Rng rng(2);
    for (size_t i = 0; i < w.size(); ++i)
        w.data()[i] = static_cast<float>(rng.normal());
    auto x = randomVec(static_cast<int>(k * kCols), 3);
    tensor::Vec y(k * rows);
    for (auto _ : state) {
        tensor::gemvBatch(w, x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(k));
}
BENCHMARK(BM_GemvFp32Batch)->ArgsProduct({{192, 516}, {1, 4, 36}});

static void
BM_GemvQ4(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    tensor::Matrix w(static_cast<size_t>(n), static_cast<size_t>(n));
    Rng rng(4);
    for (size_t i = 0; i < w.size(); ++i)
        w.data()[i] = static_cast<float>(rng.normal());
    auto q = tensor::Q4Matrix::quantize(w);
    auto x = randomVec(n, 5);
    tensor::Vec y(static_cast<size_t>(n));
    for (auto _ : state) {
        q.gemv(x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<long>(q.byteSize()));
}
BENCHMARK(BM_GemvQ4)->Arg(192)->Arg(512);

static void
BM_PredictorMlp(benchmark::State &state)
{
    const int hidden = static_cast<int>(state.range(0));
    core::ExitPredictor bank(1, 12, hidden, 2, 6);
    tensor::Vec f(12, 0.25f);
    for (auto _ : state)
        benchmark::DoNotOptimize(bank.score(0, f));
}
BENCHMARK(BM_PredictorMlp)->Arg(64)->Arg(512)->Arg(1024);

// One exit-predictor fit at Pipeline's TrainConfig (20 epochs, batch
// 32, lr 2e-3) on 173 samples, so the last minibatch is ragged.
// Arg = hidden layers of 512: 1 is the Fig. 8 optimum {12, 512, 1},
// 2 the depth case {12, 512, 512, 1}.
static void
BM_MlpFit(benchmark::State &state)
{
    std::vector<size_t> dims = {12};
    for (int64_t i = 0; i < state.range(0); ++i)
        dims.push_back(512);
    dims.push_back(1);
    const nn::Mlp init(dims, 3);
    nn::Dataset data(12);
    Rng rng(4);
    tensor::Vec f(12);
    for (int i = 0; i < 173; ++i) {
        for (auto &x : f)
            x = static_cast<float>(rng.normal());
        data.add(f, f[0] + 0.5f * f[5] > 0.0f ? 1.0f : 0.0f);
    }
    const nn::TrainConfig cfg{.epochs = 20, .batch = 32, .lr = 2e-3};
    for (auto _ : state) {
        nn::Mlp mlp = init;
        benchmark::DoNotOptimize(mlp.fit(data, cfg).final_loss);
    }
}
BENCHMARK(BM_MlpFit)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// One decoder layer (llama2-7b sim dims, Fp32) over a block of `rows`
// hidden rows after 64 cached positions: the projection phase, the
// block's k/v appended, each row's attention over the positions up to
// its own, then the finish phase. Items/s is rows per second, the
// per-row layer cost a layer-major batch would amortize: 1 row is
// token-by-token decode, 4 and 36 read each weight row once per four.
// The second argument is the number of layers the iterations rotate
// through, each with its own KV layer: 1 keeps one layer's weights in
// cache, every layer of the model streams them from memory the way a
// session stepped on its own does.
static void
BM_DecoderLayer(benchmark::State &state)
{
    constexpr int kCached = 64;
    const auto cfg = simCfg();
    const auto rows = static_cast<size_t>(state.range(0));
    const auto n_layers = static_cast<int>(state.range(1));
    const auto h = static_cast<size_t>(cfg.sim.hidden);
    const model::Weights w(cfg, tensor::WeightBackend::Fp32,
                           tensor::WeightBackend::Fp32);
    model::KvCache kv(n_layers, cfg.context_len, cfg.sim.hidden);
    model::DecoderLayer layer(cfg, rows);
    for (int l = 0; l < n_layers; ++l) {
        for (int p = 0; p < kCached; ++p) {
            layer.projectKv(w.layer(l), randomVec(cfg.sim.hidden, 100 + p),
                            p);
            kv.append(l, layer.k(0), layer.v(0));
        }
    }
    const auto input = randomVec(static_cast<int>(rows * h), 9);
    tensor::Vec x(input.size());
    int l = 0;
    for (auto _ : state) {
        const model::LayerWeights &lw = w.layer(l);
        std::ranges::copy(input, x.begin());
        layer.project(lw, x, kCached);
        for (size_t t = 0; t < rows; ++t)
            kv.append(l, layer.k(t), layer.v(t));
        for (size_t t = 0; t < rows; ++t)
            layer.attend(t, kv, l, kCached + static_cast<int>(t) + 1);
        layer.finish(lw, x);
        kv.truncate(kCached);
        l = (l + 1) % n_layers;
        benchmark::DoNotOptimize(x.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(rows));
}
BENCHMARK(BM_DecoderLayer)->ArgsProduct({{1, 4, 36}, {1, simCfg().n_layers}});

static void
BM_FfnSparse(benchmark::State &state)
{
    auto cfg = simCfg();
    model::Weights w(cfg, tensor::WeightBackend::Fp32,
                     tensor::WeightBackend::Fp32);
    model::Ffn ffn(cfg);
    auto x = randomVec(cfg.sim.hidden, 8);
    tensor::Vec out(static_cast<size_t>(cfg.sim.hidden));
    const float frac = static_cast<float>(state.range(0)) / 100.0f;
    for (auto _ : state) {
        ffn.forwardSparse(w.layer(0), x, frac, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_FfnSparse)->Arg(10)->Arg(30);

BENCHMARK_MAIN();
