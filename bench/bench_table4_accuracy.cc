/**
 * @file
 * Table 4: accuracy / perplexity / average forward layers for Dense,
 * AdaInfer, SpecEE, AWQ and AWQ+SpecEE on Llama2-7B/13B/70B over the
 * seven evaluation datasets. Dense accuracy (and AWQ accuracy) are
 * oracle-calibrated inputs (the paper's Table 4 values in
 * oracle/profiles.cc); every other number —
 * SpecEE/AdaInfer accuracy deltas, perplexities, forward layers — is
 * measured from the simulated engines.
 */

#include "bench_common.hh"

using namespace specee;
using namespace specee::benchutil;
using engines::EngineConfig;

namespace {

std::string
accOrPpl(const workload::EvalResult &ev)
{
    if (ev.accuracy_pct >= 0.0)
        return metrics::Table::num(ev.accuracy_pct, 2);
    return "ppl " + metrics::Table::num(ev.ppl, 2);
}

void
modelTable(const char *model, const hw::HardwareSpec &spec,
           bool include_adainfer)
{
    auto &pipe = pipeline(model);
    auto gen = benchGen(12, 12, 0x7ab1e4);

    metrics::Table t(std::string("Table 4: ") + model + " (" +
                     std::to_string(pipe.modelConfig().n_layers) +
                     " layers)");
    t.header({"dataset", "paper dense", "Dense", "AdaInfer(#L)",
              "SpecEE(#L)", "paper SpecEE(#L)", "AWQ", "AWQ+SpecEE(#L)"});

    for (const auto &ds : oracle::accuracyDatasets()) {
        const auto &prof = oracle::profileByName(ds);
        const auto &cal = prof.calFor(model);
        auto w = pipe.makeWorkload(ds, gen);
        auto wq = pipe.makeWorkload(ds, gen, /*quantized_cal=*/true);

        auto dense = pipe.makeEngine(EngineConfig::huggingFace(), spec)
                         ->run(w, 3);
        auto ee =
            pipe.makeEngine(EngineConfig::huggingFace().withSpecEE(),
                            spec)
                ->run(w, 3);
        auto awq = pipe.makeEngine(EngineConfig::awq(), spec)->run(wq, 3);
        auto awq_ee =
            pipe.makeEngine(EngineConfig::awq().withSpecEE(), spec)
                ->run(wq, 3);

        auto ev_dense = workload::Evaluator::evaluate(w, dense.emissions,
                                                      pipe.corpus());
        auto ev_ee = workload::Evaluator::evaluate(w, ee.emissions,
                                                   pipe.corpus());
        auto ev_awq = workload::Evaluator::evaluate(wq, awq.emissions,
                                                    pipe.corpus());
        auto ev_awq_ee = workload::Evaluator::evaluate(
            wq, awq_ee.emissions, pipe.corpus());

        std::string ada_cell = "-";
        if (include_adainfer) {
            auto ada = pipe.makeEngine(EngineConfig::adaInfer(), spec)
                           ->run(w, 3);
            auto ev_ada = workload::Evaluator::evaluate(
                w, ada.emissions, pipe.corpus());
            ada_cell = accOrPpl(ev_ada) + " (" +
                       metrics::Table::num(
                           ada.stats.avg_forward_layers, 1) +
                       ")";
        }

        const std::string paper_dense =
            prof.gradedByAccuracy()
                ? metrics::Table::num(cal.dense_accuracy, 2)
                : "ppl " + metrics::Table::num(cal.dense_ppl, 2);
        t.row({ds, paper_dense, accOrPpl(ev_dense), ada_cell,
               accOrPpl(ev_ee) + " (" +
                   metrics::Table::num(ee.stats.avg_forward_layers, 1) +
                   ")",
               (prof.gradedByAccuracy()
                    ? metrics::Table::num(
                          cal.dense_accuracy, 2) // paper SpecEE ~= dense
                    : std::string("~dense")) +
                   " (" + metrics::Table::num(cal.avg_layers, 1) + ")",
               accOrPpl(ev_awq),
               accOrPpl(ev_awq_ee) + " (" +
                   metrics::Table::num(awq_ee.stats.avg_forward_layers,
                                       1) +
                   ")"});
    }
    t.print();
}

} // namespace

int
main()
{
    modelTable("llama2-7b", hw::HardwareSpec::a100(), true);
    modelTable("llama2-13b", hw::HardwareSpec::a100(), true);
    modelTable("llama2-70b", hw::HardwareSpec::a100x4(), false);
    std::printf("\nReading guide: Dense accuracy is calibrated to Table "
                "4 by the oracle; the\nSpecEE columns are measured — "
                "the claim under test is the <1%% accuracy delta\nand "
                "the ~23/32 (7B), ~26/40 (13B), ~53/80 (70B) forward "
                "layers.\n");
    return 0;
}
