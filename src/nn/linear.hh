/**
 * @file
 * Fully-connected layer with backward pass and Adam state.
 */

#ifndef SPECEE_NN_LINEAR_HH
#define SPECEE_NN_LINEAR_HH

#include "tensor/matrix.hh"
#include "util/rng.hh"

namespace specee::nn {

/**
 * Dense layer y = W x + b with Adam state. Inference runs one sample
 * at a time (forward). Training runs a minibatch at a time, with
 * activations and their gradients laid out [unit][sample] (see
 * tensor/simd.hh): forwardBatch, then accumulateGrad and inputGrad
 * from the output gradient, then one adamStep per minibatch.
 */
class Linear
{
  public:
    Linear() = default;

    /** He-initialized layer of shape (out_dim x in_dim). */
    Linear(size_t in_dim, size_t out_dim, Rng &rng);

    /** Forward: out = W x + b. */
    void forward(tensor::CSpan x, tensor::Span out) const;

    /**
     * Forward over n samples: x is (in x n), y is (out x n); ReLU on
     * the output if `relu`. Each sample's output equals forward()'s
     * (then tensor::relu's) bit for bit.
     */
    void forwardBatch(const float *x, size_t n, bool relu,
                      float *y) const;

    /**
     * Adds n samples' dW and db to the accumulated gradients, in
     * sample order, from dy (out x n) and the layer input x (in x n).
     */
    void accumulateGrad(const float *dy, const float *x, size_t n);

    /**
     * Input gradient dx = W^T dy for n samples, dy (out x n) and dx
     * (in x n); zeroed where relu_out <= 0 unless relu_out is null.
     */
    void inputGrad(const float *dy, size_t n, const float *relu_out,
                   float *dx) const;

    /**
     * Adam step over the accumulated gradients (divided by batch);
     * leaves the gradients zeroed for the next minibatch.
     */
    void adamStep(double lr, double beta1, double beta2, double eps,
                  int t, size_t batch);

    size_t inDim() const { return w_.cols(); }
    size_t outDim() const { return w_.rows(); }

    /** Number of parameters (weights + biases). */
    size_t paramCount() const { return w_.size() + b_.size(); }

    tensor::Matrix &weights() { return w_; }
    const tensor::Matrix &weights() const { return w_; }
    tensor::Vec &bias() { return b_; }
    const tensor::Vec &bias() const { return b_; }

  private:
    tensor::Matrix w_;
    tensor::Vec b_;
    tensor::Matrix gw_;
    tensor::Vec gb_;
    // Adam moments
    tensor::Matrix mw_, vw_;
    tensor::Vec mb_, vb_;
};

} // namespace specee::nn

#endif // SPECEE_NN_LINEAR_HH
