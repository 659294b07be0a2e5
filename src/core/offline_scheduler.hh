/**
 * @file
 * Offline predictor scheduling (§5.3): profile the model once with
 * all predictors active, rank layers by exit frequency, and bake the
 * hot set into the model configuration. Reproduces the skewed
 * distribution exploitation of Fig. 10.
 */

#ifndef SPECEE_CORE_OFFLINE_SCHEDULER_HH
#define SPECEE_CORE_OFFLINE_SCHEDULER_HH

#include <vector>

namespace specee::core {

/** Exit mass the deployed offline hot set covers (T2). */
inline constexpr double kOfflineHotMass = 0.55;

/** Exit-frequency histogram and hot-layer selection. */
class OfflineScheduler
{
  public:
    explicit OfflineScheduler(int n_exit_layers);

    /** Record one observed exit at `layer` during profiling. */
    void recordExit(int layer);

    /** Record a token that never exited (ran all layers). */
    void recordNoExit() { ++noExit_; }

    int nExitLayers() const
    {
        return static_cast<int>(hist_.size());
    }

    const std::vector<long> &histogram() const { return hist_; }

    /** Total recorded exits. */
    long totalExits() const;

    /** Exit probability per layer (normalized histogram). */
    std::vector<double> exitProbabilities() const;

    /**
     * Smallest layer set covering at least `mass` of the exit
     * probability, chosen greedily by frequency; ascending layer ids.
     */
    std::vector<int> hotLayers(double mass) const;

    /** Top-k layers by exit frequency; ascending layer ids. */
    std::vector<int> topK(int k) const;

    /**
     * Skewness check of Fig. 10(a): total probability mass held by
     * the bottom-`frac` fraction of layers (by frequency).
     */
    double bottomMass(double frac) const;

  private:
    std::vector<long> hist_;
    long noExit_ = 0;
};

} // namespace specee::core

#endif // SPECEE_CORE_OFFLINE_SCHEDULER_HH
