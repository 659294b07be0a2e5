#include "util/rng.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace specee {

namespace {

inline uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Box-Muller redraws a u1 at or below this, so log(u1) stays finite. */
constexpr double kMinU1 = 1e-300;

inline uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0,1)
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

int
Rng::uniformInt(int lo, int hi)
{
    specee_assert(lo <= hi, "uniformInt(%d, %d)", lo, hi);
    uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
    return lo + static_cast<int>(next() % span);
}

double
Rng::normal(double mean, double sd)
{
    if (haveSpare_) {
        haveSpare_ = false;
        return mean + sd * spare_;
    }
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= kMinU1);
    double u2 = uniform();
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    spare_ = r * std::sin(theta);
    haveSpare_ = true;
    return mean + sd * r * std::cos(theta);
}

void
Rng::skipNormals(size_t n)
{
    if (n > 0 && haveSpare_) {
        haveSpare_ = false;
        --n;
    }
    // A pair costs the draws normal() makes for it: u1 until it
    // passes the rejection, then u2.
    for (; n >= 2; n -= 2) {
        while (uniform() <= kMinU1) {
        }
        uniform();
    }
    // An odd tail leaves a spare behind, whose value must be real.
    if (n == 1)
        normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

size_t
Rng::categorical(const std::vector<float> &weights)
{
    double total = 0.0;
    for (float w : weights)
        total += std::max(0.0f, w);
    specee_assert(total > 0.0, "categorical with all-zero weights");
    double r = uniform() * total;
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
        acc += std::max(0.0f, weights[i]);
        if (r < acc)
            return i;
    }
    return weights.size() - 1;
}

Rng
Rng::fork(uint64_t stream) const
{
    // Mix the current state with the stream id so forks are independent
    // of subsequent draws on the parent.
    uint64_t seed = s_[0] ^ (stream * 0x9e3779b97f4a7c15ull) ^ s_[3];
    return Rng(seed);
}

ZipfSampler::ZipfSampler(size_t n, double s)
{
    specee_assert(n > 0, "empty zipf support");
    cdf_.resize(n);
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
        total += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf_[i] = total;
    }
    for (auto &c : cdf_)
        c /= total;
}

size_t
ZipfSampler::sample(Rng &rng) const
{
    double u = rng.uniform();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end())
        return cdf_.size() - 1;
    return static_cast<size_t>(it - cdf_.begin());
}

double
ZipfSampler::pmf(size_t i) const
{
    specee_assert(i < cdf_.size(), "zipf pmf out of range");
    return i == 0 ? cdf_[0] : cdf_[i] - cdf_[i - 1];
}

} // namespace specee
