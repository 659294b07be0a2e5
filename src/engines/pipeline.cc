#include "engines/pipeline.hh"

#include "core/offline_scheduler.hh"
#include "model/draft_model.hh"
#include "oracle/profiles.hh"
#include "util/logging.hh"
#include "util/stopwatch.hh"

namespace specee::engines {

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
    const auto &profile = oracle::profileByName(opts.train_dataset);
    workload::WorkloadGen gen(*corpus_);
    workload::GenOptions gopts;
    gopts.n_instances = opts.train_instances;
    gopts.gen_len = opts.train_gen_len;
    gopts.seed = opts.seed ^ 0x7a11;
    const workload::Workload train_w =
        gen.generate(profile, mcfg_, gopts);

    model::TargetModelOptions tm_opts;
    tm_opts.noise_seed = mcfg_.weight_seed ^ 0xa0153;
    model::TargetModel tm(mcfg_, tm_opts, weights_);
    model::DraftModel dlm(mcfg_, *corpus_, profile.draft_hit_rate);
    profile_ = core::PredictorTrainer::collect(train_w, tm, dlm,
                                               opts.seed ^ 0xc011);
    times_.profiling_s = sw.seconds();

    // --- train the predictor banks ----------------------------------------
    sw.reset();
    preds_ = std::make_unique<core::ExitPredictor>(
        mcfg_.n_layers - 1, 3 * mcfg_.num_spec_tokens, opts.mlp_hidden,
        opts.mlp_depth, opts.seed ^ 0xec5);
    core::TrainerOptions topts;
    topts.train = opts.train_cfg;
    topts.data_ratio = opts.data_ratio;
    report_ = core::PredictorTrainer::train(*preds_, profile_, topts);
    core::PredictorTrainer::trainAdaInfer(ada_.svms, profile_, topts);

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
    e->setAdaInferBank(&ada_);
    e->setRaeeIndex(raee_.get());
    e->setOfflineHotLayers(hot_);
    return e;
}

} // namespace specee::engines
