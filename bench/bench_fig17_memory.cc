/**
 * @file
 * Figure 17: GPU memory usage vs generated tokens for Llama2-7B and
 * Llama2-13B, HuggingFace vs SpecEE. The SpecEE curve sits ~0.9 GB
 * (7B) / ~1.4 GB (13B) above HF — the draft model — while the
 * predictors add only ~416 KB (§7.4.2).
 */

#include "bench_common.hh"
#include "hw/memory_tracker.hh"

using namespace specee;
using namespace specee::benchutil;

namespace {

void
panel(const char *model, double paper_dlm_gb)
{
    auto cfg = model::ModelConfig::byName(model);
    // Predictor bank: 12->512->1 MLP per exitable layer.
    const size_t pred_params = 12 * 512 + 512 + 512 + 1;
    const auto fp16 = tensor::WeightBackend::Fp32;
    hw::MemoryTracker hf(cfg, fp16, false, 0, 0);
    hw::MemoryTracker ee(cfg, fp16, true, cfg.n_layers - 1, pred_params);

    metrics::Table t(std::string("Figure 17: GPU memory vs generated "
                                 "tokens, ") +
                     model);
    t.header({"generated tokens", "HuggingFace (GiB)", "SpecEE (GiB)",
              "delta (GiB)"});
    for (int tokens : {0, 400, 800, 1600, 2400, 3200}) {
        const double a = hw::MemoryTracker::toGiB(hf.totalBytes(tokens));
        const double b = hw::MemoryTracker::toGiB(ee.totalBytes(tokens));
        t.row({std::to_string(tokens), metrics::Table::num(a, 2),
               metrics::Table::num(b, 2),
               metrics::Table::num(b - a, 2)});
    }
    t.print();
    std::printf("draft model: paper ~%.1f GB, modeled %.2f GB; "
                "predictors: paper ~416 KB, modeled %.0f KB\n",
                paper_dlm_gb, ee.draftModelBytes() / 1e9,
                ee.predictorBytes() / 1024.0);
}

} // namespace

int
main()
{
    panel("llama2-7b", 0.9);
    panel("llama2-13b", 1.4);
    return 0;
}
