/**
 * @file
 * Convergence-layer process — the statistical heart of the oracle.
 *
 * For each generated token the target model's output distribution
 * "converges" (probability shift, §4.2) at some decoder layer c_t.
 * The paper reports three properties of c_t that SpecEE exploits:
 *
 *  1. Skewed stationary distribution over layers: ~50% of layers hold
 *     less than the average 3.2% exit mass, and the bottom-50% layers
 *     together hold <20% (Fig. 10a/c).
 *  2. Context similarity: c_t falls within ±2 layers of one of the
 *     previous 5 tokens' exits ~80% of the time, far above the ~32%
 *     baseline implied by the union-set size (Fig. 11).
 *  3. Dataset-dependent mean (Table 4 #Avg.L, Fig. 7).
 *
 * ConvergenceProcess reproduces all three with a mixture process:
 * with probability `context_strength` the next exit layer is drawn
 * near a randomly chosen recent exit; otherwise from the skewed base
 * distribution.
 */

#ifndef SPECEE_ORACLE_CONVERGENCE_HH
#define SPECEE_ORACLE_CONVERGENCE_HH

#include <deque>
#include <vector>

#include "util/rng.hh"

namespace specee::oracle {

/** Parameters of the convergence-layer process. */
struct ConvergenceParams
{
    /** Total decoder layers (exit layers range over [0, n_layers-2]). */
    int n_layers = 32;

    /** Mean exit layer the process should target (Table 4 calibration). */
    double mean_layer = 22.0;

    /** Probability of drawing near a recent token's exit layer. */
    double context_strength = 0.68;

    /** Context window (tokens) — the paper uses 5. */
    int window = 5;

    /** Neighbourhood radius for "near" — the paper uses +/-2. */
    int radius = 2;

    /** Number of hot bumps in the skewed base distribution. */
    int hot_layers = 5;

    /** Fraction of tokens that never converge before the last layer. */
    double hard_token_rate = 0.08;

    uint64_t seed = 7;
};

/**
 * Builds the skewed stationary distribution and samples correlated
 * per-token convergence layers.
 */
class ConvergenceProcess
{
  public:
    explicit ConvergenceProcess(const ConvergenceParams &params);

    /**
     * Sample the convergence layer for the next token, conditioned on
     * the recent history; advances the internal history window.
     */
    int next(Rng &rng);

    /** Clear the context history (new sequence). */
    void reset();

    /** Highest exitable layer (n_layers - 2; last layer has no predictor). */
    int maxExitLayer() const { return params_.n_layers - 2; }

    const ConvergenceParams &params() const { return params_; }

    /**
     * Build a skewed distribution over [0, n_exit_layers) with the
     * given mean; exposed for tests and Fig. 10 reproduction.
     */
    static std::vector<float> makeSkewedDist(int n_exit_layers,
                                             double mean_layer,
                                             int hot_layers,
                                             uint64_t seed);

  private:
    ConvergenceParams params_;
    std::vector<float> base_;
    std::deque<int> history_;
};

} // namespace specee::oracle

#endif // SPECEE_ORACLE_CONVERGENCE_HH
