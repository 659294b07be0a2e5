/**
 * @file
 * Lightweight MLP binary classifier — the SpecEE exit predictor (§4.3.2).
 *
 * The paper's optimal configuration is a 2-layer MLP with hidden
 * dimension 512, ReLU activations and a sigmoid output, trained with
 * binary cross-entropy. Depth and width are configurable to support
 * the design-space exploration of Fig. 8.
 */

#ifndef SPECEE_NN_MLP_HH
#define SPECEE_NN_MLP_HH

#include <iosfwd>
#include <vector>

#include "nn/dataset.hh"
#include "nn/linear.hh"

namespace specee::nn {

/** Training hyper-parameters and results. */
struct TrainConfig
{
    int epochs = 30;
    size_t batch = 32;
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    uint64_t seed = 1;
};

/** Outcome of a training run. */
struct TrainStats
{
    double final_loss = 0.0;
    double train_accuracy = 0.0;
    int epochs_run = 0;
};

/**
 * MLP binary classifier with sigmoid output.
 *
 * Architecture: dims = {in, h1, ..., 1}; ReLU between hidden layers.
 * "Layers" in the paper's Fig. 8 counts weight matrices, so the
 * 2-layer/512-hidden optimum is dims {12, 512, 1}.
 *
 * Training is minibatch-major. The weights do not change inside a
 * minibatch, so fit() runs each one as a block: every layer forward
 * for all of its samples, activations laid out [unit][sample], then
 * backward for all of them, then one Adam step. Each element keeps
 * the arithmetic order of training one sample at a time, so the
 * trained weights are the same bits at every SIMD level:
 *  - an output is its bias plus the inputs' terms in column order;
 *    an input gradient is 0.0f plus the rows' terms in row order;
 *    each term is one float multiply then one float add;
 *  - a weight or bias gradient adds the samples in minibatch order;
 *  - the loss is a double sum in sample order;
 *  - Adam is a per-element double expression.
 * The kernels (tensor/simd.hh) vectorize across samples, output rows
 * or parameters, never across a sum's terms, and use no FMA.
 */
class Mlp
{
  public:
    Mlp() = default;

    /** Build from layer dimensions, e.g. {12, 512, 1}. */
    Mlp(const std::vector<size_t> &dims, uint64_t seed);

    /** Probability of the positive class for one sample. */
    float predict(tensor::CSpan x) const;

    /** Pre-sigmoid logit for one sample. */
    float forwardLogit(tensor::CSpan x) const;

    /**
     * Full training loop: per epoch, reshuffle and take one Adam step
     * per minibatch of cfg.batch samples (a ragged last one divides
     * by its own size; batch 0 is one step over the whole dataset).
     * final_loss is the last epoch's mean BCE loss.
     */
    TrainStats fit(const Dataset &data, const TrainConfig &cfg);

    /**
     * Classification accuracy at `threshold` on a dataset: blocks of
     * samples through the batched forward, each prediction equal to
     * predict()'s.
     */
    double accuracy(const Dataset &data, float threshold = 0.5f) const;

    /** Total parameter count. */
    size_t paramCount() const;

    /** Multiply-accumulate operations per inference. */
    size_t flopsPerInference() const;

    size_t inputDim() const
    {
        return layers_.empty() ? 0 : layers_.front().inDim();
    }

    /** Number of weight matrices (the paper's "layers"). */
    size_t depth() const { return layers_.size(); }

    /**
     * Serialize weights to a binary stream (magic + dims + fp32
     * payload). Adam state is not persisted — a loaded model is for
     * inference or fresh fine-tuning.
     */
    void save(std::ostream &os) const;

    /** Deserialize a model previously written by save(). */
    static Mlp load(std::istream &is);

  private:
    /**
     * Logits of k samples, x laid out [feature][sample]: every layer's
     * forwardBatch, ReLU between, layer li's output into act[li].
     * Returns act.back().
     */
    const float *forwardBlock(const float *x, size_t k,
                              std::vector<std::vector<float>> &act) const;

    /**
     * accuracy() in blocks of up to `cap` samples through the caller's
     * input block `x` and forwardBlock() buffers `act`. fit() passes
     * its own: a second set of a 512-wide layer's buffers (128 KiB)
     * per fit raised the serving benchmark's peak RSS by 1-2 MB.
     */
    double blockAccuracy(const Dataset &data, float threshold, size_t cap,
                         std::vector<float> &x,
                         std::vector<std::vector<float>> &act) const;

    /** One buffer per layer for blocks of up to `cap` samples. */
    std::vector<std::vector<float>> blockBuffers(size_t cap) const;

    std::vector<Linear> layers_;
};

} // namespace specee::nn

#endif // SPECEE_NN_MLP_HH
