/**
 * @file
 * Engine configuration: one composable config covers every baseline
 * framework and every SpecEE variant. The Fig. 19 ablation adds one
 * SpecEE technique at a time: the exit mode (T1), then scheduling
 * (T2), then tree decoding (T3).
 *
 * Framework presets carry two kinds of parameters:
 *  - functional switches (weight format, sparse FFN, speculative
 *    decoding, the exit mode, scheduling, sharding) that change which
 *    real code paths run; the exit mode picks at most one early-exit
 *    policy per engine; every engine stores its KV in paged blocks
 *    (the vllm PagedAttention manager), so KV layout is not a switch;
 *  - calibration constants (`bw_efficiency`, `fixed_overhead_s`)
 *    that anchor absolute tok/s to each public framework's published
 *    ballpark on the named GPUs. They are hand-fitted per framework,
 *    not derived, which is why relative speedups come from the
 *    simulated run and never from these constants.
 */

#ifndef SPECEE_ENGINES_ENGINE_CONFIG_HH
#define SPECEE_ENGINES_ENGINE_CONFIG_HH

#include <string>
#include <vector>

#include "tensor/weight_store.hh"

namespace specee::engines {

/** Token-tree shape for speculative decoding. */
struct TreeShape
{
    /** Candidates drafted per level along the expanded chain. */
    std::vector<int> widths = {4, 2, 2};

    int depth() const { return static_cast<int>(widths.size()); }
};

/**
 * Weight format a deployment ships, as the (projection, head)
 * tensor::WeightBackend pair that model::Weights, hw::CostModel and
 * hw::MemoryTracker take. The tied embedding / LM head and the draft
 * model follow the head backend.
 */
enum class WeightFormat : int {
    Fp16, ///< dense everywhere (fp32 sim storage, priced fp16)
    Q8,   ///< row-quantized int8 projections, head and draft
    Q4,   ///< group-quantized int4 projections, head and draft
    Awq,  ///< AWQ: int4 projections; fp16 head, embedding and draft
};

/** The early-exit decision an engine makes per token. */
enum class ExitMode : int {
    None,     ///< every token runs every layer
    SpecEE,   ///< T1: speculative early exiting, verified
    AdaInfer, ///< AdaInfer full-vocab SVM after every layer
    Raee,     ///< RAEE retrieval picks the exit layer at layer 0
};

/** Full engine configuration. */
struct EngineConfig
{
    std::string name = "HuggingFace";

    // --- switches ----------------------------------------------------------
    ExitMode exit = ExitMode::None;
    bool offline_sched = false;    ///< T2a: offline hot-layer set
    bool online_sched = false;     ///< T2b: context-similarity activation
    bool spec_decode = false;      ///< EAGLE-style tree decoding
    ///< T3 (hyper-token merged mapping) = spec_decode && exit == SpecEE.
    /**
     * Weight format: every weight-bound operator is loaded and
     * priced at its backend's compressed traffic (projections at the
     * projection backend; head, embedding and draft at the head
     * backend).
     */
    WeightFormat weight_format = WeightFormat::Fp16;
    bool sparse_ffn = false; ///< PowerInfer activation sparsity

    // --- parameters --------------------------------------------------------
    float exit_threshold = 0.5f;
    int online_window = 5;
    int online_radius = 2;
    float ffn_active_frac = 0.30f;
    TreeShape tree;

    /**
     * Fig. 10(b)/(d) experiment: when non-empty, predictors exist at
     * exactly these layers (scheduling switches are ignored).
     */
    std::vector<int> fixed_predictor_layers;

    // --- cost calibration ---------------------------------------------------
    double bw_efficiency = 0.85;
    double fixed_overhead_s = 0.0; ///< per decode step / spec pass
    double spec_pass_overhead_s = 0.0; ///< extra per speculative pass
    bool allow_offload = false;    ///< PC: spill weights to host RAM

    /** Draft hit-rate override (<0: use the dataset profile). */
    double draft_hit_override = -1.0;

    // --- sharding ----------------------------------------------------------
    /**
     * Tensor-parallel degree: each pipeline stage's weights, KV and
     * GEMMs split across `tp` devices, which adds two ring
     * all-reduces of the activations per layer over the platform's
     * interconnect. 1 (default) is bit-identical to the unsharded
     * engine. Orthogonal to the legacy monolithic multi-GPU presets
     * (a100x4's n_devices/sync_us_per_layer), which stay untouched.
     */
    int tp = 1;

    /**
     * Pipeline-parallel degree: decoder layers partition into `pp`
     * contiguous stages (model::StageGraph), one device group per
     * stage; each stage boundary a token crosses moves its residual
     * activation over the interconnect. An early exit at layer k
     * only traverses (and under a stage-aware scheduler only
     * occupies) the stages up to k. 1 (default) is bit-identical to
     * the unsharded engine.
     */
    int pp = 1;

    // --- presets -------------------------------------------------------------
    static EngineConfig huggingFace();
    static EngineConfig vllm();
    static EngineConfig awq();
    static EngineConfig eagle();
    static EngineConfig adaInfer();
    static EngineConfig raeeBaseline();
    static EngineConfig llamaCpp();   ///< PC scenario, fp16 + offload
    static EngineConfig powerInfer(); ///< PC scenario, sparse FFN

    /**
     * Derive the +SpecEE variant: SpecEE replaces the base's exit mode
     * (and schedules predictors when `with_t2`); keeps the base
     * framework's cost calibration.
     */
    EngineConfig withSpecEE(bool with_t2 = true) const;

    /** Derive the +SpecEE+EAGLE variant (adds T3 on top). */
    EngineConfig withSpecDecode() const;

    /**
     * Derive a variant serving the whole model from `backend`
     * weights (suffixes the name, e.g. "HuggingFace[q8]"): fp32 maps
     * to the fp16 format, q8 and q4 to the matching whole-model
     * format.
     */
    EngineConfig withWeightBackend(tensor::WeightBackend backend) const;

    /**
     * Derive a TP x PP sharded variant (suffixes the name, e.g.
     * "vllm[tp2pp2]"). tp = pp = 1 returns the config unchanged —
     * the degenerate fleet is the monolithic engine.
     */
    EngineConfig withSharding(int tp_degree, int pp_degree) const;

    /** Backend of the decoder-layer projections. */
    tensor::WeightBackend projBackend() const;

    /** Backend of the tied embedding / LM head and the draft model. */
    tensor::WeightBackend headBackend() const;

    /**
     * True when workloads should use the AWQ accuracy-calibration
     * column: 4-bit projections, whether AWQ or the q4 format (q8 is
     * functionally near-lossless and keeps the dense column).
     */
    bool q4Calibrated() const
    {
        return projBackend() == tensor::WeightBackend::Q4;
    }
};

} // namespace specee::engines

#endif // SPECEE_ENGINES_ENGINE_CONFIG_HH
