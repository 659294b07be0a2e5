#include "oracle/corpus.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace specee::oracle {

namespace {

inline uint64_t
mix(uint64_t a, uint64_t b)
{
    uint64_t x = a * 0x9e3779b97f4a7c15ull + b;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

SyntheticCorpus::SyntheticCorpus(int vocab, uint64_t seed, double peak_mass,
                                 double zipf_s)
    : vocab_(vocab),
      seed_(seed),
      peakMass_(peak_mass),
      zipf_(static_cast<size_t>(vocab), zipf_s)
{
    specee_assert(vocab > kCandidates, "vocab too small: %d", vocab);
    specee_assert(peak_mass > 0.0 && peak_mass < 1.0, "bad peak mass");
    // Geometric slot weights w_i ~ r^i normalized to sum = peak_mass.
    const double r = 0.6;
    double total = 0.0;
    weights_.resize(kCandidates);
    for (int i = 0; i < kCandidates; ++i) {
        weights_[i] = std::pow(r, i);
        total += weights_[i];
    }
    for (auto &w : weights_)
        w *= peakMass_ / total;
}

std::vector<int>
SyntheticCorpus::candidates(int prev) const
{
    // One pass, linear probing on collisions: deterministic, distinct.
    std::vector<int> out;
    out.reserve(static_cast<size_t>(kCandidates));
    for (int i = 0; i < kCandidates; ++i) {
        uint64_t h = mix(seed_ ^ static_cast<uint64_t>(prev),
                         0xabcd0000ull + static_cast<uint64_t>(i));
        int c = static_cast<int>(h % static_cast<uint64_t>(vocab_));
        while (std::find(out.begin(), out.end(), c) != out.end())
            c = (c + 1) % vocab_;
        out.push_back(c);
    }
    return out;
}

double
SyntheticCorpus::prob(int prev, int next) const
{
    specee_assert(next >= 0 && next < vocab_, "token out of range");
    double p = (1.0 - peakMass_) * zipf_.pmf(static_cast<size_t>(next));
    const auto cand = candidates(prev);
    for (int i = 0; i < kCandidates; ++i) {
        if (cand[static_cast<size_t>(i)] == next)
            p += weights_[static_cast<size_t>(i)];
    }
    return p;
}

std::vector<std::pair<int, double>>
SyntheticCorpus::topNext(int prev, int k) const
{
    // Peaked candidates dominate the background for small k; merge the
    // candidate list with the head of the Zipf distribution.
    const auto cand_list = candidates(prev);
    auto prob_of = [&](int t) {
        double p = (1.0 - peakMass_) * zipf_.pmf(static_cast<size_t>(t));
        for (int i = 0; i < kCandidates; ++i) {
            if (cand_list[static_cast<size_t>(i)] == t)
                p += weights_[static_cast<size_t>(i)];
        }
        return p;
    };

    std::vector<std::pair<int, double>> cand;
    for (int c : cand_list)
        cand.emplace_back(c, prob_of(c));
    const int zipf_head = std::min(vocab_, k + kCandidates);
    for (int t = 0; t < zipf_head; ++t)
        cand.emplace_back(t, prob_of(t));
    std::sort(cand.begin(), cand.end(), [](const auto &a, const auto &b) {
        if (a.second != b.second)
            return a.second > b.second;
        return a.first < b.first;
    });
    cand.erase(std::unique(cand.begin(), cand.end(),
                           [](const auto &a, const auto &b) {
                               return a.first == b.first;
                           }),
               cand.end());
    if (static_cast<int>(cand.size()) > k)
        cand.resize(static_cast<size_t>(k));
    return cand;
}

int
SyntheticCorpus::sampleNext(int prev, Rng &rng) const
{
    double u = rng.uniform();
    if (u < peakMass_) {
        // Sample a candidate slot proportionally to its weight.
        double r = u / peakMass_; // uniform in [0,1)
        double acc = 0.0;
        double total = 0.0;
        for (double w : weights_)
            total += w;
        const auto cand = candidates(prev);
        for (int i = 0; i < kCandidates; ++i) {
            acc += weights_[static_cast<size_t>(i)] / total;
            if (r < acc)
                return cand[static_cast<size_t>(i)];
        }
        return cand[static_cast<size_t>(kCandidates - 1)];
    }
    return static_cast<int>(zipf_.sample(rng));
}

int
SyntheticCorpus::sampleUnigram(Rng &rng) const
{
    return static_cast<int>(zipf_.sample(rng));
}

std::vector<int>
SyntheticCorpus::sampleSequence(int n, Rng &rng) const
{
    std::vector<int> seq;
    seq.reserve(static_cast<size_t>(n));
    int prev = sampleUnigram(rng);
    seq.push_back(prev);
    for (int i = 1; i < n; ++i) {
        prev = sampleNext(prev, rng);
        seq.push_back(prev);
    }
    return seq;
}

} // namespace specee::oracle
