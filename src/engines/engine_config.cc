#include "engines/engine_config.hh"

#include <algorithm>

#include "util/logging.hh"

namespace specee::engines {

int
TreeShape::totalNodes() const
{
    int n = 0;
    for (int w : widths)
        n += w;
    return n;
}

EngineConfig
EngineConfig::huggingFace()
{
    EngineConfig c;
    c.name = "HuggingFace";
    // HF transformers: eager per-module kernels, Python dispatch.
    c.bw_efficiency = 0.30;
    c.fixed_overhead_s = 2.0e-3;
    return c;
}

EngineConfig
EngineConfig::vllm()
{
    EngineConfig c;
    c.name = "vllm";
    // Fused CUDA kernels + paged attention; single-stream serving.
    c.bw_efficiency = 0.52;
    c.fixed_overhead_s = 4.0e-3;
    return c;
}

EngineConfig
EngineConfig::awq()
{
    EngineConfig c;
    c.name = "AWQ";
    c.weight_format = WeightFormat::Awq;
    // HF-based runtime with W4 fused GEMV kernels; dequantization
    // lowers achieved bandwidth relative to fp16 reads.
    c.bw_efficiency = 0.24;
    c.fixed_overhead_s = 2.0e-3;
    return c;
}

EngineConfig
EngineConfig::eagle()
{
    EngineConfig c;
    c.name = "EAGLE";
    c.spec_decode = true;
    // EAGLE's released code is HF-based; extra tree bookkeeping.
    c.bw_efficiency = 0.30;
    c.fixed_overhead_s = 4.5e-3;
    return c;
}

EngineConfig
EngineConfig::adaInfer()
{
    EngineConfig c = huggingFace();
    c.name = "AdaInfer";
    c.adainfer = true;
    return c;
}

EngineConfig
EngineConfig::raeeBaseline()
{
    EngineConfig c = huggingFace();
    c.name = "RAEE";
    c.raee = true;
    return c;
}

EngineConfig
EngineConfig::llamaCpp()
{
    EngineConfig c;
    c.name = "llama.cpp";
    // PC scenario: fp16 model larger than VRAM -> layer offload.
    c.allow_offload = true;
    c.bw_efficiency = 0.80;
    c.fixed_overhead_s = 2.0e-3;
    // Hybrid tree verification rebuilds the CPU-GPU compute graph
    // once per speculative pass.
    c.spec_pass_overhead_s = 18.0e-3;
    return c;
}

EngineConfig
EngineConfig::powerInfer()
{
    EngineConfig c;
    c.name = "PowerInfer";
    c.sparse_ffn = true;
    c.allow_offload = true;
    // Hot-neuron GPU residency; sparse gathers lower efficiency.
    c.bw_efficiency = 0.45;
    c.fixed_overhead_s = 6.0e-3;
    c.spec_pass_overhead_s = 18.0e-3;
    return c;
}

EngineConfig
EngineConfig::withSpecEE(bool with_t2) const
{
    EngineConfig c = *this;
    c.name = "SpecEE+" + name;
    c.adainfer = false;
    c.early_exit = true;
    c.offline_sched = with_t2;
    c.online_sched = with_t2;
    // SpecEE's released implementation is a fused C++/CUDA backend
    // (§7.1.2). When grafted onto eager Python baselines (HF, AWQ —
    // below ~0.4 achieved bandwidth) it dispatches leaner than the
    // host framework; already-fused or already-custom runtimes
    // (vllm, llama.cpp, EAGLE) gain nothing.
    if (bw_efficiency < 0.4 && !spec_decode) {
        c.bw_efficiency = std::min(0.95, bw_efficiency * 1.06);
        c.fixed_overhead_s = fixed_overhead_s * 0.6;
    }
    return c;
}

EngineConfig
EngineConfig::withWeightBackend(tensor::WeightBackend backend) const
{
    EngineConfig c = *this;
    switch (backend) {
    case tensor::WeightBackend::Fp32:
        c.weight_format = WeightFormat::Fp16;
        break;
    case tensor::WeightBackend::Q8:
        c.weight_format = WeightFormat::Q8;
        break;
    case tensor::WeightBackend::Q4:
        c.weight_format = WeightFormat::Q4;
        break;
    }
    c.name = name + "[" + tensor::weightBackendName(backend) + "]";
    return c;
}

tensor::WeightBackend
EngineConfig::projBackend() const
{
    switch (weight_format) {
    case WeightFormat::Fp16:
        return tensor::WeightBackend::Fp32;
    case WeightFormat::Q8:
        return tensor::WeightBackend::Q8;
    case WeightFormat::Q4:
    case WeightFormat::Awq:
        return tensor::WeightBackend::Q4;
    }
    specee_panic("bad weight format %d", static_cast<int>(weight_format));
}

tensor::WeightBackend
EngineConfig::headBackend() const
{
    return weight_format == WeightFormat::Awq ? tensor::WeightBackend::Fp32
                                              : projBackend();
}

EngineConfig
EngineConfig::withSharding(int tp_degree, int pp_degree) const
{
    specee_assert(tp_degree >= 1 && pp_degree >= 1,
                  "sharding degrees must be >= 1, got tp=%d pp=%d",
                  tp_degree, pp_degree);
    EngineConfig c = *this;
    c.tp = tp_degree;
    c.pp = pp_degree;
    if (tp_degree > 1 || pp_degree > 1) {
        c.name = name + "[tp" + std::to_string(tp_degree) + "pp" +
                 std::to_string(pp_degree) + "]";
    }
    return c;
}

EngineConfig
EngineConfig::withSpecDecode() const
{
    EngineConfig c = *this;
    if (c.name.rfind("SpecEE+", 0) != 0)
        c.name = "SpecEE+" + c.name;
    c.spec_decode = true;
    return c;
}

} // namespace specee::engines
