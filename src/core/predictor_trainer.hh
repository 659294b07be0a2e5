/**
 * @file
 * Predictor offline training pipeline (§7.4.4).
 *
 * Runs the target model with the draft model attached over a
 * profiling workload (the paper uses MT-Bench prompts), recording
 * per-layer samples: the 12-dim speculation features plus the label
 * "the token an exit at this layer would emit equals the token the
 * full forward pass emits". A separate collector replays the same
 * runs for the AdaInfer baseline's 3-dim full-vocabulary features,
 * which only an AdaInfer engine needs.
 *
 * Training is plain Adam on BCE per layer; accuracy is reported on a
 * held-out split, which is what Fig. 8 / Fig. 18 plot.
 */

#ifndef SPECEE_CORE_PREDICTOR_TRAINER_HH
#define SPECEE_CORE_PREDICTOR_TRAINER_HH

#include <vector>

#include "core/predictor.hh"
#include "model/draft_model.hh"
#include "model/target_model.hh"
#include "nn/dataset.hh"
#include "nn/mlp.hh"
#include "nn/svm.hh"
#include "workload/datasets.hh"

namespace specee::core {

/** Per-layer feature/label datasets from one profiling run. */
struct ProfileData
{
    /** 12-dim speculation features per exit layer. */
    std::vector<nn::Dataset> specee;
    /** Oracle exit layer histogram (first label-true layer). */
    std::vector<long> oracle_exit_hist;
    /** RAEE database entries: layer-0 hidden probe per token. */
    std::vector<tensor::Vec> raee_probes;
    /** RAEE labels: oracle exit layer per probe. */
    std::vector<int> raee_exits;
};

/** Training options. */
struct TrainerOptions
{
    double train_frac = 0.8;  ///< held-out split for reported accuracy
    double data_ratio = 1.0;  ///< fraction of training data used (Fig.18)
    nn::TrainConfig train;    ///< per-layer MLP optimizer settings
};

/** Training outcome across the predictor bank. */
struct TrainReport
{
    double mean_test_accuracy = 0.0;
    double mean_train_accuracy = 0.0;
    size_t samples_used = 0;
    std::vector<double> per_layer_test_accuracy;
};

/** Collects profiling data and trains predictor banks. */
class PredictorTrainer
{
  public:
    /**
     * Profile `tm` over `workload` with `dlm` proposing speculative
     * tokens; fills the SpecEE datasets, the oracle exit histogram
     * and the RAEE probes. Each instance's scripted tokens are known
     * up front, so the model decodes them as one block
     * (TargetModel::decodeScripted). Then parallelFor labels the
     * instance's rows token by token with LmHead::isArgmax, which
     * reads the whole head only for a row whose label is 1, and the
     * next instance starts. The result does not depend on the thread
     * count.
     */
    static ProfileData collect(const workload::Workload &w,
                               const model::TargetModel &tm,
                               const model::DraftModel &dlm,
                               uint64_t seed);

    /**
     * The AdaInfer baseline's 3-dim features per exit layer, with
     * collect()'s labels, from the same decode: the same arguments
     * give the same hidden states row for row. Every row runs the
     * full head, a softmax and an entropy.
     */
    static std::vector<nn::Dataset>
    collectAdaInfer(const workload::Workload &w, const model::TargetModel &tm,
                    const model::DraftModel &dlm, uint64_t seed);

    /**
     * Train the SpecEE MLP bank, its layers in parallel; returns
     * held-out accuracies. The result does not depend on the thread
     * count.
     */
    static TrainReport train(ExitPredictor &bank, const ProfileData &data,
                             const TrainerOptions &opts);

    /** Train an AdaInfer SVM bank on collectAdaInfer()'s datasets. */
    static TrainReport trainAdaInfer(std::vector<nn::LinearSvm> &bank,
                                     const std::vector<nn::Dataset> &data,
                                     const TrainerOptions &opts);
};

} // namespace specee::core

#endif // SPECEE_CORE_PREDICTOR_TRAINER_HH
