/**
 * @file
 * Wall-clock stopwatch for measuring real execution time of kernels
 * (used by the predictor design-space exploration and the kernel
 * micro-benchmarks; paper-figure latencies come from hw::CostModel).
 */

#ifndef SPECEE_UTIL_STOPWATCH_HH
#define SPECEE_UTIL_STOPWATCH_HH

#include <chrono>

namespace specee {

/** Simple monotonic wall-clock stopwatch. */
class Stopwatch
{
  public:
    Stopwatch() { reset(); }

    /** Restart timing from now. */
    void reset() { start_ = Clock::now(); }

    /** Seconds elapsed since construction or the last reset(). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

    /** Microseconds elapsed. */
    double micros() const { return seconds() * 1e6; }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

} // namespace specee

#endif // SPECEE_UTIL_STOPWATCH_HH
