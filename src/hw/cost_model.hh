/**
 * @file
 * Roofline cost model and per-class operator log.
 *
 * Every logical operator an engine executes is priced at the TRUE
 * Llama-2 dimensions: time = max(bytes / effective-bandwidth,
 * flops / effective-compute) + kernel-launch overhead. Single-batch
 * LLM decoding is memory-bound, so the bytes term dominates for the
 * big GEMVs while tiny kernels (the exit predictor) are launch-bound
 * — reproducing why AdaInfer-style full-vocab predictors cost ~20%
 * of latency while SpecEE's sliced predictor is ~5% (§7.4.4).
 *
 * The PC scenario models weight offload: a fraction of weight bytes
 * is served from host memory at host bandwidth (llama.cpp layer
 * offload; PowerInfer hot/cold neuron split).
 */

#ifndef SPECEE_HW_COST_MODEL_HH
#define SPECEE_HW_COST_MODEL_HH

#include <array>
#include <vector>

#include "hw/hardware_model.hh"
#include "tensor/weight_store.hh"

namespace specee::hw {

/** Accumulated totals for one op class. */
struct OpTotals
{
    double time_s = 0.0;
    double energy_j = 0.0;
    double flops = 0.0;
    double bytes = 0.0;
    long count = 0;
};

/** Per-class operator accounting for one engine run. */
class OpLog
{
  public:
    void add(OpClass cls, double time_s, double energy_j, double flops,
             double bytes);

    const OpTotals &totals(OpClass cls) const;

    /** Sum over all classes. */
    OpTotals grand() const;

    /** Average power (W) over the whole run. */
    double avgPowerW() const;

    /** Merge another log into this one. */
    void merge(const OpLog &other);

    void clear();

  private:
    std::array<OpTotals, kNumOpClasses> totals_{};
};

/** Prices logical operators on a platform. */
class CostModel
{
  public:
    /**
     * @param spec           platform
     * @param bw_efficiency  fraction of peak bandwidth the framework
     *                       achieves (hand-fitted per framework,
     *                       see engines::EngineConfig)
     * @param device_weight_frac fraction of weight bytes resident on
     *                       the device (1.0 = no offload)
     * @param proj_backend   backend of the decoder-layer projections:
     *                       the weight traffic of DecoderLayer, KvFill
     *                       and PrefillWeights is compressed by its
     *                       tensor::weightCompression before pricing
     *                       and logging
     * @param head_backend   backend of the tied embedding / LM head
     *                       and the draft model: compresses every
     *                       other class's weight traffic
     */
    CostModel(const HardwareSpec &spec, double bw_efficiency = 1.0,
              double device_weight_frac = 1.0,
              tensor::WeightBackend proj_backend =
                  tensor::WeightBackend::Fp32,
              tensor::WeightBackend head_backend =
                  tensor::WeightBackend::Fp32);

    const HardwareSpec &spec() const { return spec_; }

    /**
     * Price one operator and append it to `log`.
     *
     * @param weight_bytes  weight traffic (subject to offload split)
     * @param act_bytes     activation/KV traffic (always on device)
     * @param kernels       number of kernel launches
     */
    double account(OpLog &log, OpClass cls, double flops,
                   double weight_bytes, double act_bytes = 0.0,
                   int kernels = 1) const;

    /** Time for a pure fixed overhead (no flops/bytes). */
    double accountFixed(OpLog &log, OpClass cls, double seconds) const;

    /**
     * Time to move `bytes` of KV over the host link (swap-to-host
     * preemption traffic), one DMA per `kernels`. Pure pricing — the
     * scheduler's swap-vs-recompute policy compares this against the
     * victim's modeled recompute cost without charging anything.
     */
    double swapSeconds(double bytes, int kernels = 1) const;

    /**
     * Price one KV swap transfer (cls must be KvSwapOut or KvSwapIn)
     * and append it to `log`. Swap traffic is private per-request
     * bytes on the host link: it never amortizes across the batch.
     */
    double accountSwap(OpLog &log, OpClass cls, double bytes,
                       int kernels = 1) const;

    /**
     * Time to move `bytes` over the device-to-device interconnect
     * (NVLink-class link), one collective launch per `kernels`.
     * Like swap, the copy engines drive the link at its effective
     * rate — the framework's kernel bandwidth efficiency does not
     * apply. Pure pricing.
     */
    double interconnectSeconds(double bytes, int kernels = 1) const;

    /**
     * Price one peer-link transfer (cls must be TpAllReduce,
     * PpHandoff or KvHandoff) of `bytes` over the interconnect and
     * append it to `log`. Collective volume scales with the
     * activations (or KV blocks) moved, so the traffic is private
     * per-request bytes — it never amortizes across the batch the
     * way a weight stream does.
     */
    double accountInterconnect(OpLog &log, OpClass cls, double bytes,
                               int kernels = 1) const;

    double bwEfficiency() const { return bwEff_; }
    double deviceWeightFrac() const { return devFrac_; }
    /** Head / embedding / draft weight compression (bits / 16). */
    double headCompression() const { return headComp_; }

  private:
    HardwareSpec spec_;
    double bwEff_;
    double devFrac_;
    double projComp_;
    double headComp_;
};

/** DMA channel kinds one device's copy engines expose. */
enum class DmaChannel : int {
    Host = 0, ///< PCIe host link (swap_bw_gbs): swap-to-host traffic
    Peer = 1, ///< NVLink-class peer link (interconnect_gbs): KV handoff
};

constexpr int kNumDmaChannels = 2;

/**
 * Per-device DMA channel timelines: the asynchronous transfer layer
 * the scheduler overlaps against the iteration clock.
 *
 * Each logical device owns one host-link channel and one peer-link
 * channel. Transfers submitted to a channel serialize FIFO on that
 * channel (one copy engine drives one link) but advance concurrently
 * with everything else — compute iterations, other channels, other
 * devices. submit() models exactly that: a transfer issued at `now`
 * starts when the channel last frees, finishes `seconds` later, and
 * the caller gets the completion time to gate the one session whose
 * blocks are in flight. Nothing here advances a clock — the
 * scheduler decides what (if anything) waits.
 *
 * Pure bookkeeping over (device, channel, seconds): deterministic
 * for a deterministic caller, which is how fleet results stay
 * bit-identical across worker counts — channels belong to the
 * modeled topology's logical devices, not to physical worker
 * threads.
 */
class TransferEngine
{
  public:
    explicit TransferEngine(int n_devices = 1);

    /**
     * Schedule a transfer of `seconds` on `device`'s `ch` channel,
     * issued at time `now` (the channel serializes: the transfer
     * starts at max(now, channel busy-until)). @return completion
     * time
     */
    double submit(int device, DmaChannel ch, double now,
                  double seconds);

    /** Time `device`'s `ch` channel last frees (0 before any use). */
    double freeAt(int device, DmaChannel ch) const;

    /** Seconds every channel has spent moving bytes, summed. */
    double busySeconds() const { return busy_s_; }

    int nDevices() const
    {
        return static_cast<int>(free_at_.size());
    }

    /** Forget all channel history (every channel free at 0). */
    void reset();

  private:
    std::vector<std::array<double, kNumDmaChannels>> free_at_;
    double busy_s_ = 0.0;
};

} // namespace specee::hw

#endif // SPECEE_HW_COST_MODEL_HH
