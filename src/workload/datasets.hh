/**
 * @file
 * Workload generation: turns a dataset profile into scripted
 * generation instances the engines run.
 *
 * Each instance carries a prompt (corpus sample) and per-step oracle
 * scripts: the token the dense model will emit, the pre-convergence
 * distractor, and the convergence layer. Multiple-choice / math /
 * code tasks designate one graded answer step whose target is the
 * correct option token with probability equal to the calibrated
 * dense accuracy (Table 4), so "dense accuracy" is reproduced by
 * construction and every engine's accuracy *delta* is measured from
 * its actual emissions.
 */

#ifndef SPECEE_WORKLOAD_DATASETS_HH
#define SPECEE_WORKLOAD_DATASETS_HH

#include <string>
#include <vector>

#include "model/config.hh"
#include "model/target_model.hh"
#include "oracle/convergence.hh"
#include "oracle/corpus.hh"
#include "oracle/profiles.hh"

namespace specee::workload {

/**
 * Prompt length used by the functional simulator. The sim prompt only
 * gives attention its texture; costs are charged at the workload's
 * true prompt length (Workload::true_prompt_len).
 */
constexpr int kSimPromptLen = 12;

/** One scripted generation request. */
struct Instance
{
    std::vector<int> prompt;
    std::vector<model::TokenScript> steps;
    int answer_step = -1;   ///< graded step (-1: perplexity task)
    int correct_token = -1; ///< ground-truth answer token
};

/** A batch of instances for one (dataset, model) pair. */
struct Workload
{
    std::string dataset;
    std::string model_key;
    oracle::TaskKind kind = oracle::TaskKind::Generation;
    int true_prompt_len = 0; ///< used by the cost model's KV pricing
    std::vector<Instance> instances;

    /** Total scripted generation steps. */
    int totalSteps() const;

    /**
     * Single-instance view for per-request serving: same dataset /
     * calibration metadata, exactly one instance.
     */
    Workload slice(size_t instance) const;
};

/** Options for workload generation. */
struct GenOptions
{
    int n_instances = 8;
    int gen_len = 48;            ///< steps per instance (capped)
    double accuracy_override = -1.0;  ///< >=0: replace calibrated accuracy
    double mean_layers_override = -1.0; ///< >=0: replace Table-4 layers
    /**
     * > 0: replace the profile's true-dims prompt length — drives KV
     * pricing and (when chunked prefill is on) the number of prefill
     * chunks a request needs. The sim-dims prompt stays kSimPromptLen.
     */
    int prompt_len_override = 0;
    double hard_token_rate = 0.08;
    double context_strength = 0.68;
    uint64_t seed = 0x10ad;
};

/** Deterministic workload generator over a shared corpus. */
class WorkloadGen
{
  public:
    explicit WorkloadGen(const oracle::SyntheticCorpus &corpus);

    /**
     * Generate a workload for `profile` on `cfg`.
     *
     * @param quantized_cal use the AWQ accuracy calibration column
     */
    Workload generate(const oracle::DatasetProfile &profile,
                      const model::ModelConfig &cfg,
                      const GenOptions &opts,
                      bool quantized_cal = false) const;

    /**
     * Convergence-process parameters used for (profile, cfg) — also
     * consumed by the Fig. 10/11 benches to show the raw process.
     */
    oracle::ConvergenceParams convergenceParams(
        const oracle::DatasetProfile &profile,
        const model::ModelConfig &cfg, const GenOptions &opts,
        bool quantized_cal = false) const;

  private:
    const oracle::SyntheticCorpus &corpus_;
};

} // namespace specee::workload

#endif // SPECEE_WORKLOAD_DATASETS_HH
