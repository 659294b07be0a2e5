/**
 * @file
 * Table 1 made quantitative: the related-work comparison on memory,
 * prediction weight, training cost and end-to-end latency for the
 * early-exit family — AdaInfer (full-vocab SVM), RAEE (retrieval
 * database) and SpecEE — measured on the simulated Llama2-7B @ A100.
 * (MoD and D-LLM are skip-layer methods that require retraining the
 * LLM itself; they have no inference-time predictor to measure and
 * are listed for completeness.)
 */

#include "bench_common.hh"
#include "core/raee.hh"
#include "hw/cost_model.hh"

using namespace specee;
using namespace specee::benchutil;
using engines::EngineConfig;

int
main()
{
    auto &pipe = pipeline("llama2-7b");
    auto gen = benchGen(2, 24);
    const auto spec = hw::HardwareSpec::a100();

    auto hf = runOn("llama2-7b", EngineConfig::huggingFace(), spec,
                    "MT-Bench", gen);
    auto ada = runOn("llama2-7b", EngineConfig::adaInfer(), spec,
                     "MT-Bench", gen);
    auto raee = runOn("llama2-7b", EngineConfig::raeeBaseline(), spec,
                      "MT-Bench", gen);
    auto ee = runOn("llama2-7b",
                    EngineConfig::huggingFace().withSpecEE(), spec,
                    "MT-Bench", gen);

    auto pred_share = [](const engines::RunStats &st) {
        const auto &log = st.oplog;
        return 100.0 *
               (log.totals(hw::OpClass::Predictor).time_s +
                log.totals(hw::OpClass::LmHeadSliced).time_s) /
               log.grand().time_s;
    };

    // Predictor asset memory at true scale.
    const double ada_mem_mb = 31 * 4.0 * 4.0 / 1e6; // 31 SVMs, 3+1 fp32
    const double raee_mem_gb = core::kRaeeDbEntries * 4096.0 * 2.0 / 1e9;
    const double ee_mem_kb =
        static_cast<double>(pipe.predictors().paramsPerPredictor()) *
        pipe.predictors().nExitLayers() * 2.0 / 1024.0;

    metrics::Table t("Table 1 (quantified): skip-layer / early-exit "
                     "related work, Llama2-7B @ A100");
    t.header({"method", "predictor memory", "prediction share",
              "training cost", "avg layers", "speedup vs HF",
              "paper verdict"});
    t.row({"AdaInfer", metrics::Table::num(ada_mem_mb, 3) + " MB (SVMs)",
           metrics::Table::num(pred_share(ada.stats) +
                                   100.0 * ada.stats.oplog
                                       .totals(hw::OpClass::LmHeadFull)
                                       .time_s /
                                   ada.stats.oplog.grand().time_s,
                               1) +
               "% (incl. full head)",
           "SVM fit (minutes)",
           metrics::Table::num(ada.stats.avg_forward_layers, 1),
           mult(speedup(ada.stats, hf.stats)),
           "Low mem, Heavy pred, High latency"});
    t.row({"RAEE", metrics::Table::num(raee_mem_gb, 1) + " GB (database)",
           metrics::Table::num(pred_share(raee.stats), 1) + "% (retrieval)",
           "none (database build)",
           metrics::Table::num(raee.stats.avg_forward_layers, 1),
           mult(speedup(raee.stats, hf.stats)),
           "High mem, Heavy pred, High latency"});
    t.row({"MoD / D-LLM", "0 (router in model)", "-",
           "LLM retraining (GPU-days)", "-", "-",
           "Low latency but High training"});
    t.row({"SpecEE", metrics::Table::num(ee_mem_kb, 0) + " KB (MLPs)",
           metrics::Table::num(pred_share(ee.stats), 1) + "%",
           "~minutes (Fig. 18)",
           metrics::Table::num(ee.stats.avg_forward_layers, 1),
           mult(speedup(ee.stats, hf.stats)),
           "Low mem, Light pred, Low training, Low latency"});
    t.print();
    return 0;
}
