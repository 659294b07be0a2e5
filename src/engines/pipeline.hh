/**
 * @file
 * Pipeline — the top-level convenience API.
 *
 * Wires together everything a user (or a benchmark) needs to run
 * SpecEE on a model: the synthetic corpus, the offline predictor
 * training of §7.4.4, the offline scheduling profile of §5.3, the
 * RAEE index, and engine construction. The AdaInfer baseline bank is
 * trained the first time it is asked for (adaInferBank(), or
 * makeEngine() of an AdaInfer config), so a SpecEE-only deployment
 * never profiles the full-vocabulary features it alone needs. This
 * is the entry point the examples use:
 *
 *   engines::Pipeline pipe({.model = "llama2-7b"});
 *   auto engine = pipe.makeEngine(
 *       engines::EngineConfig::huggingFace().withSpecEE(),
 *       hw::HardwareSpec::a100());
 *   auto result = engine->run(pipe.makeWorkload("MT-Bench", {}));
 */

#ifndef SPECEE_ENGINES_PIPELINE_HH
#define SPECEE_ENGINES_PIPELINE_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "core/predictor_trainer.hh"
#include "core/raee.hh"
#include "engines/engine.hh"
#include "oracle/corpus.hh"
#include "workload/datasets.hh"

namespace specee::engines {

/** Pipeline construction options. */
struct PipelineOptions
{
    std::string model = "llama2-7b";

    /** Profiling/training dataset (the paper uses MT-Bench). */
    std::string train_dataset = "MT-Bench";
    int train_instances = 8;
    int train_gen_len = 40;

    /** Predictor architecture (Fig. 8 optimum). */
    int mlp_hidden = 512;
    int mlp_depth = 2;
    nn::TrainConfig train_cfg{.epochs = 20, .batch = 32, .lr = 2e-3,
                              .beta1 = 0.9, .beta2 = 0.999, .eps = 1e-8,
                              .seed = 7};

    /** Fraction of the collected data used (Fig. 18 sweeps this). */
    double data_ratio = 1.0;

    uint64_t seed = 42;
};

/** Wall seconds of each phase of Pipeline construction. */
struct PipelineTimes
{
    double weights_s = 0.0;   ///< drawing the dense weight set
    double profiling_s = 0.0; ///< profiling workload and collect()
    double training_s = 0.0;  ///< SpecEE bank, RAEE index, schedule
    /** AdaInfer profiling and SVM bank; 0 until the bank is trained. */
    double adainfer_s = 0.0;
};

/** Trained, ready-to-run SpecEE deployment for one model. */
class Pipeline
{
  public:
    explicit Pipeline(const PipelineOptions &opts = {});
    ~Pipeline();

    const model::ModelConfig &modelConfig() const { return mcfg_; }
    const oracle::SyntheticCorpus &corpus() const { return *corpus_; }
    const core::ExitPredictor &predictors() const { return *preds_; }
    /**
     * The AdaInfer SVM bank, trained on the first call: it replays
     * construction's profiling decode for the full-vocabulary
     * features. Safe to call from several threads; all get one bank.
     */
    const AdaInferBank &adaInferBank() const;
    const core::RaeeIndex &raeeIndex() const { return *raee_; }
    const std::vector<int> &offlineHotLayers() const { return hot_; }
    const core::ProfileData &profileData() const { return profile_; }
    const core::TrainReport &trainReport() const { return report_; }
    const PipelineOptions &options() const { return opts_; }
    /** How long construction (and the AdaInfer bank) took. */
    PipelineTimes phaseTimes() const;

    /**
     * Build a workload for one of the nine dataset profiles.
     * @param quantized_cal use the AWQ accuracy calibration column
     */
    workload::Workload makeWorkload(const std::string &dataset,
                                    const workload::GenOptions &gen,
                                    bool quantized_cal = false) const;

    /**
     * Construct an engine with the trained artifacts attached; only
     * an AdaInfer config gets (and so trains) the AdaInfer bank.
     * Dense (fp16-format) engines share the pipeline's one immutable
     * weight set; the compressed formats build their own.
     */
    std::unique_ptr<Engine> makeEngine(const EngineConfig &ecfg,
                                       const hw::HardwareSpec &spec) const;

  private:
    PipelineOptions opts_;
    model::ModelConfig mcfg_;
    /** Dense target weights: profiling and every dense engine. */
    std::shared_ptr<const model::Weights> weights_;
    std::unique_ptr<oracle::SyntheticCorpus> corpus_;
    std::unique_ptr<core::ExitPredictor> preds_;
    std::unique_ptr<core::RaeeIndex> raee_;
    mutable std::once_flag adaOnce_;
    mutable AdaInferBank ada_;           ///< written once, under adaOnce_
    mutable std::atomic<double> adaSeconds_{0.0};
    core::ProfileData profile_;
    core::TrainReport report_;
    std::vector<int> hot_;
    PipelineTimes times_;
};

} // namespace specee::engines

#endif // SPECEE_ENGINES_PIPELINE_HH
