/**
 * @file
 * Device-memory footprint model at true model dimensions (Fig. 17).
 *
 * Tracks the components the paper plots: model weights (fp16, Q8 or
 * Q4 depending on the weight backend), growing KV cache, the
 * EAGLE-style draft model (~0.9 GB for 7B, ~1.4 GB for 13B, §7.4.2),
 * and the exit predictors (~416 KB).
 */

#ifndef SPECEE_HW_MEMORY_TRACKER_HH
#define SPECEE_HW_MEMORY_TRACKER_HH

#include "model/config.hh"
#include "model/stage_graph.hh"
#include "tensor/weight_store.hh"

namespace specee::hw {

/** Static + dynamic memory model for one engine configuration. */
class MemoryTracker
{
  public:
    /**
     * @param cfg              model configuration (true dims used)
     * @param backend          target-weight storage backend (fp32 is
     *                         shipped fp16 on device; q8/q4 at their
     *                         packed bits-per-weight incl. scales)
     * @param draft_backend    draft-model storage backend (the
     *                         head backend of the weight format: the
     *                         target's backend, fp16 under AWQ)
     * @param with_draft_model engine carries the DLM (SpecEE/EAGLE)
     * @param n_predictors     exit predictors deployed (0 if none)
     * @param predictor_params parameters per predictor MLP
     */
    MemoryTracker(const model::ModelConfig &cfg,
                  tensor::WeightBackend backend,
                  tensor::WeightBackend draft_backend,
                  bool with_draft_model, int n_predictors,
                  size_t predictor_params);

    /** Whole-model backend: the DLM ships in the same backend. */
    MemoryTracker(const model::ModelConfig &cfg,
                  tensor::WeightBackend backend, bool with_draft_model,
                  int n_predictors, size_t predictor_params)
        : MemoryTracker(cfg, backend, backend, with_draft_model,
                        n_predictors, predictor_params)
    {
    }

    /** Weight bytes at the backend's modeled bits-per-weight. */
    double weightBytes() const;

    /**
     * Draft-model bytes: one decoder layer + embedding + LM head,
     * stored in the same backend as the target model.
     */
    double draftModelBytes() const;

    /** All predictor parameters, fp32. */
    double predictorBytes() const;

    /** KV cache bytes after `tokens` total cached positions. */
    double kvBytes(long tokens) const;

    /**
     * Host-pool bytes held by swapped-out sequences (`positions`
     * cached positions across every swapped session) — the host-DRAM
     * side of the fleet census, distinct from the VRAM totals.
     */
    double hostKvBytes(long positions) const;

    /**
     * KV bytes currently riding a DMA channel (`positions` cached
     * positions across every sequence with an in-flight transfer:
     * swap traffic on the host link, prefill->decode handoffs on the
     * peer link). The overlapped-transfer side of the fleet census —
     * bytes that are pinned (their blocks cannot be touched) but not
     * chargeable to either endpoint's working set alone.
     */
    double inflightKvBytes(long positions) const;

    /** Total device bytes after `tokens` positions. */
    double totalBytes(int tokens) const;

    /**
     * Decode-time activation scratch of one live decode session
     * (fp16 residual stream, attention workspace and a logits
     * buffer). Weights are shared across sessions; this is the part
     * that scales with batch occupancy.
     */
    double activationBytesPerSession() const;

    /**
     * Fleet view under continuous batching: weights, draft model and
     * predictors counted ONCE for the serving node, per-session KV
     * summed (`fleet_tokens` = cached positions across every live
     * session) and activation scratch per active session.
     */
    double fleetTotalBytes(long fleet_tokens, int n_sessions) const;

    /**
     * Weight bytes pipeline stage `stage` hosts (before the
     * tensor-parallel split): its layer range's projections, plus
     * the embedding table and draft model on stage 0, the LM head on
     * the last stage, and the exit predictors apportioned to the
     * stages hosting their layers. Sums over stages to weightBytes()
     * + draftModelBytes() + predictorBytes() exactly, so the shard
     * partition conserves the deployment.
     */
    double stageWeightBytes(const model::StageGraph &g, int stage) const;

    /**
     * Device-resident bytes of ONE device of a tp x pp fleet: stage
     * `stage`'s weight share and its layer range's share of the
     * fleet KV, both split `tp` ways, plus per-session activation
     * scratch. The single-device fit question — does a 70B-class
     * deployment fit an 80 GB card — is maxDeviceBytes() vs vram.
     */
    double deviceBytes(const model::StageGraph &g, int stage, int tp,
                       long fleet_tokens, int n_sessions) const;

    /** Max over stages of deviceBytes() — the fleet's tightest device. */
    double maxDeviceBytes(const model::StageGraph &g, int tp,
                          long fleet_tokens, int n_sessions) const;

    /** Convenience: GiB for plotting. */
    static double toGiB(double bytes) { return bytes / (1024.0 * 1024.0 * 1024.0); }

  private:
    model::ModelConfig cfg_;
    tensor::WeightBackend backend_;
    tensor::WeightBackend draftBackend_;
    bool withDraft_;
    int nPredictors_;
    size_t predictorParams_;
};

} // namespace specee::hw

#endif // SPECEE_HW_MEMORY_TRACKER_HH
