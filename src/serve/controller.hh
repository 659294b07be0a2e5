/**
 * @file
 * AdaptiveController — SLO-driven feedback control over scheduler
 * knobs.
 *
 * The batch scheduler exposes knobs whose best setting depends on
 * the workload mix of the moment: the prefill chunk size (small
 * chunks protect ITL, big chunks finish prompts sooner) and the
 * per-tier SpecEE exit threshold (aggressive exits trade a little
 * depth for latency).
 * A static choice is tuned for one mix and loses goodput-under-SLO
 * when the mix shifts.
 *
 * The controller closes the loop: at every decision epoch (a fixed
 * span of the MODELED clock) it reads the just-closed obs::Timeline
 * window — goodput under SLO, windowed TTFT/ITL percentiles, KV and
 * stage occupancy — scores the knob arms that were live during that
 * window, and Thompson-samples the next setting of each knob from a
 * small discrete arm set. Rewards are the window's SLO attainment
 * ratio (slo_tokens / tokens), folded into per-arm Beta posteriors
 * as fractional updates, so the controller converges on arms that
 * keep tokens inside their SLOs and keeps exploring when the
 * workload drifts.
 *
 * Determinism: every stochastic draw comes from a counter-derived
 * fork of one seeded Rng, and the controller runs on the scheduler
 * thread against the modeled clock — the knob trajectory is a pure
 * function of (options, observed windows), bit-identical across
 * worker counts. Disabled (the default), the controller holds the
 * scheduler's static knob values forever and the scheduler is
 * bit-identical to one built without it.
 */

#ifndef SPECEE_SERVE_CONTROLLER_HH
#define SPECEE_SERVE_CONTROLLER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/timeline.hh"
#include "util/rng.hh"

namespace specee::serve {

/**
 * Controller knobs (scheduler policy). Off by default; each arm
 * vector is one knob's discrete search space — an empty vector
 * freezes that knob at its static value.
 */
struct ControllerOptions
{
    /**
     * Master switch. Off (default) is bit-inert: the scheduler's
     * emissions AND modeled costs are identical to a build without
     * the controller.
     */
    bool enabled = false;

    /** Seed of the controller's private rng stream. */
    uint64_t seed = 1;

    /** Decision epoch in modeled seconds (> 0 when enabled). */
    double epoch_s = 0.25;

    /**
     * Prefill chunk-size arms (each >= 1). The knob is additionally
     * frozen when the scheduler's static chunk_tokens is 0 —
     * chunking on/off changes admission structure and is not a
     * runtime-steerable axis.
     */
    std::vector<int> chunk_arms;

    /** Interactive-tier exit-threshold arms, each in (0, 1). */
    std::vector<float> interactive_exit_arms;

    /** Batch-tier exit-threshold arms, each in (0, 1). */
    std::vector<float> batch_exit_arms;
};

/** One live setting of every controlled knob. */
struct ControllerKnobs
{
    int chunk_tokens = 0;
    float interactive_exit_threshold = 0.0f;
    float batch_exit_threshold = 0.0f;
};

/** One decision epoch of the knob trajectory. */
struct ControllerEpoch
{
    long epoch = 0; ///< 0-based epoch index
    double t = 0.0; ///< modeled decision instant
    /** SLO attainment of the closed window (slo_tokens / tokens). */
    double reward = 0.0;
    bool reward_valid = false; ///< false when the window was idle
    int changed = 0;           ///< knobs whose value moved
    ControllerKnobs knobs;     ///< settings for the NEXT epoch
};

/** Controller outcome exposed through FleetStats. */
struct ControllerStats
{
    long epochs = 0;
    long knob_changes = 0;
    std::vector<ControllerEpoch> trajectory;
};

/** Thompson-sampling feedback controller over scheduler knobs. */
class AdaptiveController
{
  public:
    /** The controlled knobs, in a fixed order (test introspection). */
    enum class KnobId
    {
        Chunk = 0,
        InteractiveExit,
        BatchExit,
    };
    static constexpr int kNumKnobs = 3;

    /** Disabled controller (decide() must not be called). */
    AdaptiveController() = default;

    /**
     * `defaults` are the scheduler's static knob values; the
     * controller starts there and only moves knobs with non-empty
     * arm sets. Arm values are validated eagerly.
     */
    AdaptiveController(const ControllerOptions &opts,
                       const ControllerKnobs &defaults);

    bool enabled() const { return enabled_; }
    double epochSeconds() const { return opts_.epoch_s; }

    /** Settings the scheduler should run under right now. */
    const ControllerKnobs &knobs() const { return knobs_; }

    const ControllerStats &stats() const { return stats_; }

    /**
     * Close one decision epoch at modeled time `now`: credit the
     * arms live during `closed` with its SLO-attainment reward,
     * Thompson-sample the next arm of every active knob and update
     * knobs(). A fully idle window (no iterations, no tokens)
     * yields no posterior update — silence is not evidence.
     * @return number of knobs whose value changed @pre enabled()
     */
    int decide(double now, const obs::TimelineWindow &closed);

    /** True when `k` has an arm set and may move. */
    bool knobActive(KnobId k) const;

    /** Posterior mean of arm `arm` of knob `k` (test hook). */
    double posteriorMean(KnobId k, size_t arm) const;

  private:
    /** Per-knob Thompson state over its discrete arm set. */
    struct Knob
    {
        bool active = false;
        std::vector<double> alpha; ///< Beta posterior successes + 1
        std::vector<double> beta;  ///< Beta posterior failures + 1
        size_t chosen = 0;         ///< live arm (valid once sampled)
        bool have_choice = false;  ///< false until the first sample
    };

    const Knob &knob(KnobId k) const
    {
        return knobs_state_[static_cast<size_t>(k)];
    }
    Knob &knob(KnobId k)
    {
        return knobs_state_[static_cast<size_t>(k)];
    }

    /** Beta(a, b) sample via the Marsaglia-Tsang gamma ratio. */
    static double sampleBeta(Rng &rng, double a, double b);
    static double sampleGamma(Rng &rng, double shape);

    /** Sample an arm for `k`; @return true when the value moved. */
    bool sampleKnob(KnobId k);

    bool enabled_ = false;
    ControllerOptions opts_;
    ControllerKnobs knobs_;
    Knob knobs_state_[kNumKnobs];
    Rng rng_;
    uint64_t draws_ = 0; ///< counter feeding rng_.fork per decision
    ControllerStats stats_;
};

} // namespace specee::serve

#endif // SPECEE_SERVE_CONTROLLER_HH
