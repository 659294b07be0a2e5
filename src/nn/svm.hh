/**
 * @file
 * Linear SVM — the AdaInfer baseline's exit predictor (§2.3, Table 1).
 *
 * AdaInfer feeds full-vocabulary statistics (top probability, gap,
 * entropy) into a classic SVM. We implement a linear SVM trained by
 * SGD on the hinge loss with L2 regularization.
 */

#ifndef SPECEE_NN_SVM_HH
#define SPECEE_NN_SVM_HH

#include "nn/dataset.hh"
#include "tensor/matrix.hh"

namespace specee::nn {

/** Linear SVM binary classifier (labels {0,1} mapped to {-1,+1}). */
class LinearSvm
{
  public:
    LinearSvm() = default;
    explicit LinearSvm(size_t dim) : w_(dim, 0.0f) {}

    /** Signed margin w.x + b. */
    float margin(tensor::CSpan x) const;

    /** Predicted class (margin > 0). */
    bool predict(tensor::CSpan x) const { return margin(x) > 0.0f; }

    /**
     * SGD training on hinge loss.
     * @param lambda L2 regularization strength
     */
    void fit(const Dataset &data, int epochs = 40, double lr = 1e-2,
             double lambda = 1e-4, uint64_t seed = 1);

    /** Classification accuracy on a dataset. */
    double accuracy(const Dataset &data) const;

    size_t dim() const { return w_.size(); }

    const tensor::Vec &weights() const { return w_; }
    float bias() const { return b_; }

  private:
    tensor::Vec w_;
    float b_ = 0.0f;
};

} // namespace specee::nn

#endif // SPECEE_NN_SVM_HH
