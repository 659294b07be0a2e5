#include "hw/cost_model.hh"

#include <algorithm>

#include "util/logging.hh"

namespace specee::hw {

void
OpLog::add(OpClass cls, double time_s, double energy_j, double flops,
           double bytes)
{
    OpTotals &t = totals_[static_cast<size_t>(cls)];
    t.time_s += time_s;
    t.energy_j += energy_j;
    t.flops += flops;
    t.bytes += bytes;
    t.count += 1;
}

const OpTotals &
OpLog::totals(OpClass cls) const
{
    return totals_[static_cast<size_t>(cls)];
}

OpTotals
OpLog::grand() const
{
    OpTotals g;
    for (const auto &t : totals_) {
        g.time_s += t.time_s;
        g.energy_j += t.energy_j;
        g.flops += t.flops;
        g.bytes += t.bytes;
        g.count += t.count;
    }
    return g;
}

double
OpLog::avgPowerW() const
{
    OpTotals g = grand();
    return g.time_s > 0.0 ? g.energy_j / g.time_s : 0.0;
}

void
OpLog::merge(const OpLog &other)
{
    for (int i = 0; i < kNumOpClasses; ++i) {
        OpTotals &t = totals_[static_cast<size_t>(i)];
        const OpTotals &o = other.totals_[static_cast<size_t>(i)];
        t.time_s += o.time_s;
        t.energy_j += o.energy_j;
        t.flops += o.flops;
        t.bytes += o.bytes;
        t.count += o.count;
    }
}

void
OpLog::clear()
{
    totals_.fill(OpTotals{});
}

CostModel::CostModel(const HardwareSpec &spec, double bw_efficiency,
                     double device_weight_frac,
                     tensor::WeightBackend proj_backend,
                     tensor::WeightBackend head_backend)
    : spec_(spec), bwEff_(bw_efficiency), devFrac_(device_weight_frac),
      projComp_(tensor::weightCompression(proj_backend)),
      headComp_(tensor::weightCompression(head_backend))
{
    specee_assert(bw_efficiency > 0.0 && bw_efficiency <= 1.0,
                  "bad bandwidth efficiency %f", bw_efficiency);
    specee_assert(device_weight_frac >= 0.0 && device_weight_frac <= 1.0,
                  "bad device weight fraction %f", device_weight_frac);
}

double
CostModel::account(OpLog &log, OpClass cls, double flops,
                   double weight_bytes, double act_bytes, int kernels) const
{
    // Weight traffic is what the serving backend actually streams:
    // quantized backends read compressed bytes (and dequantize in
    // registers — the flops term is unchanged and still never
    // dominates single-batch decode). Decoder-layer projections and
    // the head-side tables (embedding, LM head, draft) may ship in
    // different backends (AWQ).
    const bool projection = cls == OpClass::DecoderLayer ||
                            cls == OpClass::KvFill ||
                            cls == OpClass::PrefillWeights;
    weight_bytes *= projection ? projComp_ : headComp_;

    const double dev_bw = spec_.mem_bw_gbs * 1e9 * bwEff_;
    const double dev_fl = spec_.compute_tflops * 1e12 * bwEff_;

    const double dev_bytes = weight_bytes * devFrac_ + act_bytes;
    const double host_bytes = weight_bytes * (1.0 - devFrac_);

    double t = std::max(dev_bytes / dev_bw, flops / dev_fl);
    if (host_bytes > 0.0) {
        specee_assert(spec_.host_bw_gbs > 0.0,
                      "weight offload on a platform without a host path");
        t += host_bytes / (spec_.host_bw_gbs * 1e9 * bwEff_);
    }
    t += kernels * spec_.launch_overhead_us * 1e-6;

    const double p = spec_.power_w[static_cast<size_t>(cls)];
    log.add(cls, t, t * p, flops, weight_bytes + act_bytes);
    return t;
}

double
CostModel::swapSeconds(double bytes, int kernels) const
{
    specee_assert(spec_.swap_bw_gbs > 0.0,
                  "KV swap on a platform without a host link");
    // The copy engines drive the host link directly; the framework's
    // kernel bandwidth efficiency (bwEff_) does not apply to DMA —
    // swap_bw_gbs is already the effective link rate.
    return bytes / (spec_.swap_bw_gbs * 1e9) +
           kernels * spec_.launch_overhead_us * 1e-6;
}

double
CostModel::accountSwap(OpLog &log, OpClass cls, double bytes,
                       int kernels) const
{
    specee_assert(cls == OpClass::KvSwapOut || cls == OpClass::KvSwapIn,
                  "accountSwap() prices swap classes only");
    const double t = swapSeconds(bytes, kernels);
    const double p = spec_.power_w[static_cast<size_t>(cls)];
    log.add(cls, t, t * p, 0.0, bytes);
    return t;
}

double
CostModel::interconnectSeconds(double bytes, int kernels) const
{
    specee_assert(spec_.interconnect_gbs > 0.0,
                  "sharded collective on a platform without a peer "
                  "link (interconnect_gbs = 0)");
    return bytes / (spec_.interconnect_gbs * 1e9) +
           kernels * spec_.launch_overhead_us * 1e-6;
}

double
CostModel::accountInterconnect(OpLog &log, OpClass cls, double bytes,
                               int kernels) const
{
    specee_assert(cls == OpClass::TpAllReduce ||
                      cls == OpClass::PpHandoff ||
                      cls == OpClass::KvHandoff,
                  "accountInterconnect() prices peer-link classes "
                  "only");
    const double t = interconnectSeconds(bytes, kernels);
    const double p = spec_.power_w[static_cast<size_t>(cls)];
    log.add(cls, t, t * p, 0.0, bytes);
    return t;
}

double
CostModel::accountFixed(OpLog &log, OpClass cls, double seconds) const
{
    const double p = spec_.power_w[static_cast<size_t>(cls)];
    log.add(cls, seconds, seconds * p, 0.0, 0.0);
    return seconds;
}

TransferEngine::TransferEngine(int n_devices)
{
    specee_assert(n_devices >= 1,
                  "transfer engine needs >= 1 device, got %d",
                  n_devices);
    free_at_.resize(static_cast<size_t>(n_devices));
    reset();
}

double
TransferEngine::submit(int device, DmaChannel ch, double now,
                       double seconds)
{
    specee_assert(device >= 0 &&
                      device < static_cast<int>(free_at_.size()),
                  "transfer on unknown device %d of %zu", device,
                  free_at_.size());
    specee_assert(seconds >= 0.0 && now >= 0.0,
                  "negative transfer time (%f s at %f)", seconds, now);
    double &busy_until =
        free_at_[static_cast<size_t>(device)][static_cast<size_t>(ch)];
    const double start = std::max(now, busy_until);
    busy_until = start + seconds;
    busy_s_ += seconds;
    return busy_until;
}

double
TransferEngine::freeAt(int device, DmaChannel ch) const
{
    specee_assert(device >= 0 &&
                      device < static_cast<int>(free_at_.size()),
                  "transfer on unknown device %d of %zu", device,
                  free_at_.size());
    return free_at_[static_cast<size_t>(device)][static_cast<size_t>(
        ch)];
}

void
TransferEngine::reset()
{
    for (auto &d : free_at_)
        d.fill(0.0);
    busy_s_ = 0.0;
}

} // namespace specee::hw
