#include "engines/pipeline.hh"

#include "core/offline_scheduler.hh"
#include "model/draft_model.hh"
#include "oracle/profiles.hh"
#include "util/logging.hh"
#include "util/stopwatch.hh"

namespace specee::engines {

namespace {

/**
 * What profiling decodes: the workload, the target, its draft and the
 * seed of the speculation stream.
 */
struct ProfilingRun
{
    workload::Workload w;
    model::TargetModel tm;
    model::DraftModel dlm;
    uint64_t seed;
};

/** The profiling run of §7.4.4; the same options give the same run. */
ProfilingRun
profilingRun(const PipelineOptions &opts, const model::ModelConfig &mcfg,
             const oracle::SyntheticCorpus &corpus,
             std::shared_ptr<const model::Weights> weights)
{
    const auto &profile = oracle::profileByName(opts.train_dataset);
    workload::WorkloadGen gen(corpus);
    workload::GenOptions gopts;
    gopts.n_instances = opts.train_instances;
    gopts.gen_len = opts.train_gen_len;
    gopts.seed = opts.seed ^ 0x7a11;
    model::TargetModelOptions tm_opts;
    tm_opts.noise_seed = mcfg.weight_seed ^ 0xa0153;
    return {gen.generate(profile, mcfg, gopts),
            model::TargetModel(mcfg, tm_opts, std::move(weights)),
            model::DraftModel(mcfg, corpus, profile.draft_hit_rate),
            opts.seed ^ 0xc011};
}

core::TrainerOptions
trainerOptions(const PipelineOptions &opts)
{
    core::TrainerOptions topts;
    topts.train = opts.train_cfg;
    topts.data_ratio = opts.data_ratio;
    return topts;
}

} // namespace

Pipeline::Pipeline(const PipelineOptions &opts)
    : opts_(opts), mcfg_(model::ModelConfig::byName(opts.model))
{
    Stopwatch sw;
    weights_ = std::make_shared<const model::Weights>(
        mcfg_, tensor::WeightBackend::Fp32, tensor::WeightBackend::Fp32);
    times_.weights_s = sw.seconds();

    sw.reset();
    corpus_ = std::make_unique<oracle::SyntheticCorpus>(
        mcfg_.sim.vocab, opts.seed ^ 0xc0de);

    // --- collect profiling data (§7.4.4) -------------------------------
    {
        const ProfilingRun run =
            profilingRun(opts_, mcfg_, *corpus_, weights_);
        profile_ = core::PredictorTrainer::collect(run.w, run.tm, run.dlm,
                                                   run.seed);
    }
    times_.profiling_s = sw.seconds();

    // --- train the SpecEE predictor bank ----------------------------------
    sw.reset();
    preds_ = std::make_unique<core::ExitPredictor>(
        mcfg_.n_layers - 1, 3 * mcfg_.num_spec_tokens, opts.mlp_hidden,
        opts.mlp_depth, opts.seed ^ 0xec5);
    report_ = core::PredictorTrainer::train(*preds_, profile_,
                                            trainerOptions(opts_));

    // --- RAEE baseline database -------------------------------------------
    raee_ = std::make_unique<core::RaeeIndex>(mcfg_.sim.hidden,
                                              mcfg_.n_layers);
    for (size_t i = 0; i < profile_.raee_probes.size(); ++i)
        raee_->add(profile_.raee_probes[i], profile_.raee_exits[i]);

    // --- offline scheduling (T2) ----------------------------------------
    core::OfflineScheduler off(mcfg_.n_layers - 1);
    for (size_t l = 0; l < profile_.oracle_exit_hist.size(); ++l) {
        for (long c = 0; c < profile_.oracle_exit_hist[l]; ++c)
            off.recordExit(static_cast<int>(l));
    }
    hot_ = off.hotLayers(core::kOfflineHotMass);
    times_.training_s = sw.seconds();
}

const AdaInferBank &
Pipeline::adaInferBank() const
{
    std::call_once(adaOnce_, [this] {
        Stopwatch sw;
        const ProfilingRun run =
            profilingRun(opts_, mcfg_, *corpus_, weights_);
        core::PredictorTrainer::trainAdaInfer(
            ada_.svms,
            core::PredictorTrainer::collectAdaInfer(run.w, run.tm, run.dlm,
                                                    run.seed),
            trainerOptions(opts_));
        adaSeconds_.store(sw.seconds());
    });
    return ada_;
}

PipelineTimes
Pipeline::phaseTimes() const
{
    PipelineTimes t = times_;
    t.adainfer_s = adaSeconds_.load();
    return t;
}

Pipeline::~Pipeline() = default;

workload::Workload
Pipeline::makeWorkload(const std::string &dataset,
                       const workload::GenOptions &gen_opts,
                       bool quantized_cal) const
{
    workload::WorkloadGen gen(*corpus_);
    return gen.generate(oracle::profileByName(dataset), mcfg_, gen_opts,
                        quantized_cal);
}

std::unique_ptr<Engine>
Pipeline::makeEngine(const EngineConfig &ecfg,
                     const hw::HardwareSpec &spec) const
{
    const bool dense = ecfg.weight_format == WeightFormat::Fp16;
    auto e = std::make_unique<Engine>(ecfg, mcfg_, spec, *corpus_,
                                      dense ? weights_ : nullptr);
    e->setPredictors(preds_.get());
    if (ecfg.exit == ExitMode::AdaInfer)
        e->setAdaInferBank(&adaInferBank());
    e->setRaeeIndex(raee_.get());
    e->setOfflineHotLayers(hot_);
    return e;
}

} // namespace specee::engines
