#include "nn/mlp.hh"

#include <algorithm>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>

#include "tensor/kernels.hh"
#include "util/logging.hh"

namespace specee::nn {

Mlp::Mlp(const std::vector<size_t> &dims, uint64_t seed)
{
    specee_assert(dims.size() >= 2, "MLP needs at least input/output dims");
    specee_assert(dims.back() == 1, "binary classifier must end in 1 unit");
    Rng rng(seed);
    for (size_t i = 0; i + 1 < dims.size(); ++i)
        layers_.emplace_back(dims[i], dims[i + 1], rng);
}

float
Mlp::forwardLogit(tensor::CSpan x) const
{
    specee_assert(!layers_.empty(), "forward on empty MLP");
    // Inference scratch is thread-local: one trained bank is shared
    // read-only by every serving worker, so predict() keeps no state
    // in the model. resize() without zeroing is safe — Linear::forward
    // overwrites out fully.
    static thread_local tensor::Vec ping, pong;
    tensor::CSpan cur = x;
    for (size_t i = 0; i < layers_.size(); ++i) {
        tensor::Vec &out = i % 2 == 0 ? ping : pong;
        out.resize(layers_[i].outDim());
        layers_[i].forward(cur, out);
        if (i + 1 < layers_.size())
            tensor::relu(out);
        cur = out;
    }
    return cur[0];
}

float
Mlp::predict(tensor::CSpan x) const
{
    return tensor::sigmoid(forwardLogit(x));
}

namespace {

/**
 * At most this many samples of a minibatch run as one block. A larger
 * minibatch (batch 0 means the whole dataset) accumulates its
 * gradients block after block, which keeps their sample order.
 */
constexpr size_t kMaxBlock = 64;

/** Samples idx[0..k) of `data`, laid out [feature][sample] in x. */
void
gatherBlock(const Dataset &data, const size_t *idx, size_t k, float *x)
{
    for (size_t j = 0; j < k; ++j) {
        const tensor::CSpan f = data.features(idx[j]);
        for (size_t c = 0; c < f.size(); ++c)
            x[c * k + j] = f[c];
    }
}

} // namespace

const float *
Mlp::forwardBlock(const float *x, size_t k,
                  std::vector<std::vector<float>> &act) const
{
    const float *cur = x;
    for (size_t li = 0; li < layers_.size(); ++li) {
        layers_[li].forwardBatch(cur, k, li + 1 < layers_.size(),
                                 act[li].data());
        cur = act[li].data();
    }
    return cur;
}

std::vector<std::vector<float>>
Mlp::blockBuffers(size_t cap) const
{
    std::vector<std::vector<float>> bufs(layers_.size());
    for (size_t li = 0; li < layers_.size(); ++li)
        bufs[li].resize(layers_[li].outDim() * cap);
    return bufs;
}

TrainStats
Mlp::fit(const Dataset &data, const TrainConfig &cfg)
{
    specee_assert(!data.empty(), "fit on empty dataset");
    specee_assert(data.dim() == inputDim(),
                  "dataset dim %zu != MLP input %zu", data.dim(),
                  inputDim());
    const size_t n = data.size();
    const size_t in = inputDim();
    const size_t depth = layers_.size();
    // Batch 0, or one past the dataset, is one step per epoch.
    const size_t batch = cfg.batch == 0 ? n : std::min(cfg.batch, n);
    const size_t cap = std::min(batch, kMaxBlock);

    // One block's inputs, activations and output gradients, each laid
    // out [unit][sample].
    std::vector<float> x(in * cap);
    std::vector<std::vector<float>> act = blockBuffers(cap);
    std::vector<std::vector<float>> grad = blockBuffers(cap);

    Rng rng(cfg.seed);
    std::vector<size_t> order(n);
    TrainStats stats;
    int adam_t = 0;
    for (int e = 0; e < cfg.epochs; ++e) {
        std::iota(order.begin(), order.end(), size_t{0});
        rng.shuffle(order);
        double total_loss = 0.0;
        for (size_t b0 = 0; b0 < n; b0 += batch) {
            const size_t b1 = std::min(b0 + batch, n);
            for (size_t k0 = b0; k0 < b1; k0 += cap) {
                const size_t k = std::min(cap, b1 - k0);
                gatherBlock(data, order.data() + k0, k, x.data());
                forwardBlock(x.data(), k, act);

                // BCE loss, and dL/dlogit = p - y for sigmoid + BCE.
                for (size_t j = 0; j < k; ++j) {
                    const float y = data.label(order[k0 + j]);
                    const float p = tensor::sigmoid(act.back()[j]);
                    const float pc = std::clamp(p, 1e-7f, 1.0f - 1e-7f);
                    total_loss += -(y * std::log(pc) +
                                    (1.0f - y) * std::log(1.0f - pc));
                    grad.back()[j] = p - y;
                }

                // Backward; a hidden layer's input is the ReLU output
                // below it, which masks the gradient passed down.
                for (size_t li = depth; li-- > 0;) {
                    const float *input =
                        li > 0 ? act[li - 1].data() : x.data();
                    layers_[li].accumulateGrad(grad[li].data(), input, k);
                    if (li > 0)
                        layers_[li].inputGrad(grad[li].data(), k, input,
                                              grad[li - 1].data());
                }
            }
            ++adam_t;
            for (auto &l : layers_)
                l.adamStep(cfg.lr, cfg.beta1, cfg.beta2, cfg.eps, adam_t,
                           b1 - b0);
        }
        stats.final_loss = total_loss / static_cast<double>(n);
        stats.epochs_run = e + 1;
    }
    stats.train_accuracy = blockAccuracy(data, 0.5f, cap, x, act);
    return stats;
}

double
Mlp::accuracy(const Dataset &data, float threshold) const
{
    if (data.empty())
        return 0.0;
    specee_assert(data.dim() == inputDim(),
                  "dataset dim %zu != MLP input %zu", data.dim(),
                  inputDim());
    const size_t cap = std::min(data.size(), kMaxBlock);
    std::vector<float> x(inputDim() * cap);
    std::vector<std::vector<float>> act = blockBuffers(cap);
    return blockAccuracy(data, threshold, cap, x, act);
}

double
Mlp::blockAccuracy(const Dataset &data, float threshold, size_t cap,
                   std::vector<float> &x,
                   std::vector<std::vector<float>> &act) const
{
    // forwardBatch equals predict()'s forward bit for bit.
    const size_t n = data.size();
    std::vector<size_t> idx(n);
    std::iota(idx.begin(), idx.end(), size_t{0});
    size_t correct = 0;
    for (size_t i0 = 0; i0 < n; i0 += cap) {
        const size_t k = std::min(cap, n - i0);
        gatherBlock(data, idx.data() + i0, k, x.data());
        const float *logits = forwardBlock(x.data(), k, act);
        for (size_t j = 0; j < k; ++j) {
            const bool pred = tensor::sigmoid(logits[j]) > threshold;
            const bool truth = data.label(i0 + j) > 0.5f;
            if (pred == truth)
                ++correct;
        }
    }
    return static_cast<double>(correct) / static_cast<double>(n);
}

size_t
Mlp::paramCount() const
{
    size_t n = 0;
    for (const auto &l : layers_)
        n += l.paramCount();
    return n;
}

size_t
Mlp::flopsPerInference() const
{
    size_t n = 0;
    for (const auto &l : layers_)
        n += 2 * l.inDim() * l.outDim();
    return n;
}

namespace {

constexpr uint32_t kMlpMagic = 0x5eec41fe;

template <typename T>
void
writePod(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
T
readPod(std::istream &is)
{
    T v{};
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    specee_assert(static_cast<bool>(is), "truncated MLP stream");
    return v;
}

} // namespace

void
Mlp::save(std::ostream &os) const
{
    writePod(os, kMlpMagic);
    writePod(os, static_cast<uint32_t>(layers_.size() + 1));
    writePod(os, static_cast<uint32_t>(inputDim()));
    for (const auto &l : layers_)
        writePod(os, static_cast<uint32_t>(l.outDim()));
    for (const auto &l : layers_) {
        const auto &w = l.weights();
        os.write(reinterpret_cast<const char *>(w.data()),
                 static_cast<std::streamsize>(w.byteSize()));
        os.write(reinterpret_cast<const char *>(l.bias().data()),
                 static_cast<std::streamsize>(l.bias().size() *
                                              sizeof(float)));
    }
    specee_assert(static_cast<bool>(os), "MLP save failed");
}

Mlp
Mlp::load(std::istream &is)
{
    const uint32_t magic = readPod<uint32_t>(is);
    specee_assert(magic == kMlpMagic, "bad MLP magic 0x%x", magic);
    const uint32_t n_dims = readPod<uint32_t>(is);
    specee_assert(n_dims >= 2 && n_dims < 64, "bad MLP depth %u",
                  n_dims);
    std::vector<size_t> dims;
    for (uint32_t i = 0; i < n_dims; ++i)
        dims.push_back(readPod<uint32_t>(is));
    Mlp mlp(dims, /*seed=*/0);
    for (auto &l : mlp.layers_) {
        auto &w = l.weights();
        is.read(reinterpret_cast<char *>(w.data()),
                static_cast<std::streamsize>(w.byteSize()));
        is.read(reinterpret_cast<char *>(l.bias().data()),
                static_cast<std::streamsize>(l.bias().size() *
                                             sizeof(float)));
        specee_assert(static_cast<bool>(is), "truncated MLP payload");
    }
    return mlp;
}

} // namespace specee::nn
