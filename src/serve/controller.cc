#include "serve/controller.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace specee::serve {

AdaptiveController::AdaptiveController(const ControllerOptions &opts,
                                       const ControllerKnobs &defaults)
    : enabled_(opts.enabled), opts_(opts), knobs_(defaults),
      rng_(opts.seed)
{
    if (!enabled_)
        return;
    specee_assert(opts_.epoch_s > 0.0,
                  "controller epoch_s must be > 0, got %g",
                  opts_.epoch_s);
    for (int c : opts_.chunk_arms)
        specee_assert(c >= 1, "chunk arm must be >= 1, got %d", c);
    for (float t : opts_.interactive_exit_arms)
        specee_assert(t > 0.0f && t < 1.0f,
                      "exit-threshold arm must be in (0, 1), got %g",
                      static_cast<double>(t));
    for (float t : opts_.batch_exit_arms)
        specee_assert(t > 0.0f && t < 1.0f,
                      "exit-threshold arm must be in (0, 1), got %g",
                      static_cast<double>(t));

    // The chunk knob only steers chunk SIZE: when the scheduler runs
    // unchunked (static chunk_tokens == 0) the knob freezes, since
    // toggling chunking itself would change admission structure.
    const size_t n_arms[kNumKnobs] = {
        defaults.chunk_tokens > 0 ? opts_.chunk_arms.size() : 0,
        opts_.interactive_exit_arms.size(),
        opts_.batch_exit_arms.size(),
    };
    for (int k = 0; k < kNumKnobs; ++k) {
        Knob &kn = knobs_state_[k];
        kn.active = n_arms[k] > 0;
        kn.alpha.assign(n_arms[k], 1.0);
        kn.beta.assign(n_arms[k], 1.0);
    }
}

bool
AdaptiveController::knobActive(KnobId k) const
{
    return knob(k).active;
}

double
AdaptiveController::posteriorMean(KnobId k, size_t arm) const
{
    const Knob &kn = knob(k);
    specee_assert(arm < kn.alpha.size(),
                  "posterior arm %zu out of range", arm);
    return kn.alpha[arm] / (kn.alpha[arm] + kn.beta[arm]);
}

double
AdaptiveController::sampleGamma(Rng &rng, double shape)
{
    // Marsaglia-Tsang squeeze; valid for shape >= 1, which always
    // holds here (Beta posteriors start at (1, 1) and only grow).
    specee_assert(shape >= 1.0, "gamma shape %g < 1", shape);
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / (3.0 * std::sqrt(d));
    for (;;) {
        const double x = rng.normal();
        const double t = 1.0 + c * x;
        if (t <= 0.0)
            continue;
        const double v = t * t * t;
        const double u = rng.uniform();
        if (u < 1.0 - 0.0331 * x * x * x * x)
            return d * v;
        if (std::log(u) <
            0.5 * x * x + d - d * v + d * std::log(v))
            return d * v;
    }
}

double
AdaptiveController::sampleBeta(Rng &rng, double a, double b)
{
    const double ga = sampleGamma(rng, a);
    const double gb = sampleGamma(rng, b);
    return ga / (ga + gb);
}

bool
AdaptiveController::sampleKnob(KnobId k)
{
    Knob &kn = knob(k);
    if (!kn.active)
        return false;
    // One counter-derived fork per (decision, knob): the draw
    // sequence depends only on how many decisions preceded it, never
    // on rejection-loop lengths of other knobs.
    Rng r = rng_.fork(draws_++);
    size_t best = 0;
    double best_s = -1.0;
    for (size_t i = 0; i < kn.alpha.size(); ++i) {
        const double s = sampleBeta(r, kn.alpha[i], kn.beta[i]);
        if (s > best_s) {
            best_s = s;
            best = i;
        }
    }
    kn.chosen = best;
    kn.have_choice = true;
    bool moved = false;
    switch (k) {
    case KnobId::Chunk:
        moved = knobs_.chunk_tokens != opts_.chunk_arms[best];
        knobs_.chunk_tokens = opts_.chunk_arms[best];
        break;
    case KnobId::InteractiveExit:
        moved = knobs_.interactive_exit_threshold !=
                opts_.interactive_exit_arms[best];
        knobs_.interactive_exit_threshold =
            opts_.interactive_exit_arms[best];
        break;
    case KnobId::BatchExit:
        moved =
            knobs_.batch_exit_threshold != opts_.batch_exit_arms[best];
        knobs_.batch_exit_threshold = opts_.batch_exit_arms[best];
        break;
    }
    return moved;
}

int
AdaptiveController::decide(double now,
                           const obs::TimelineWindow &closed)
{
    specee_assert(enabled_, "decide() on a disabled controller");

    // Reward: fraction of the window's delivered tokens that came
    // from requests meeting their SLO. A window with iterations but
    // no tokens is evidence of starvation (reward 0); a fully idle
    // window is no evidence at all.
    double reward = 0.0;
    bool reward_valid = false;
    if (closed.tokens > 0) {
        reward = static_cast<double>(closed.slo_tokens) /
                 static_cast<double>(closed.tokens);
        reward_valid = true;
    } else if (closed.iterations > 0) {
        reward_valid = true;
    }

    if (reward_valid) {
        for (auto &kn : knobs_state_) {
            if (!kn.active || !kn.have_choice)
                continue;
            kn.alpha[kn.chosen] += reward;
            kn.beta[kn.chosen] += 1.0 - reward;
        }
    }

    int changed = 0;
    for (int k = 0; k < kNumKnobs; ++k)
        if (sampleKnob(static_cast<KnobId>(k)))
            ++changed;

    ControllerEpoch ep;
    ep.epoch = stats_.epochs;
    ep.t = now;
    ep.reward = reward;
    ep.reward_valid = reward_valid;
    ep.changed = changed;
    ep.knobs = knobs_;
    stats_.trajectory.push_back(ep);
    ++stats_.epochs;
    stats_.knob_changes += changed;
    return changed;
}

} // namespace specee::serve
