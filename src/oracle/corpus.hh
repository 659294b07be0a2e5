/**
 * @file
 * Synthetic language corpus — the substitute for real NLP datasets.
 *
 * A procedural bigram language model over the simulation vocabulary:
 * p(next | prev) is a mixture of a peaked per-context candidate set
 * (derived by hashing `prev`, geometric weights) and a Zipfian
 * unigram background. The model is O(1) in memory, supports exact
 * probabilities (for perplexity), top-k continuation queries (for
 * draft-token distractors) and sampling (for prompt generation).
 */

#ifndef SPECEE_ORACLE_CORPUS_HH
#define SPECEE_ORACLE_CORPUS_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hh"

namespace specee::oracle {

/**
 * Procedural bigram corpus model over token ids [0, vocab).
 */
class SyntheticCorpus
{
  public:
    /**
     * @param vocab      vocabulary size (simulation vocab)
     * @param seed       corpus identity; different seeds = different language
     * @param peak_mass  probability mass on the peaked bigram candidates
     * @param zipf_s     Zipf exponent of the unigram background
     */
    SyntheticCorpus(int vocab, uint64_t seed, double peak_mass = 0.85,
                    double zipf_s = 1.1);

    int vocab() const { return vocab_; }

    /** Number of peaked candidates per context. */
    static constexpr int kCandidates = 16;

    /** The peaked candidate token list for context `prev`. */
    std::vector<int> candidates(int prev) const;

    /** Exact bigram probability p(next | prev). */
    double prob(int prev, int next) const;

    /** Top-k most likely continuations of `prev` with probabilities. */
    std::vector<std::pair<int, double>> topNext(int prev, int k) const;

    /** Sample a continuation of `prev`. */
    int sampleNext(int prev, Rng &rng) const;

    /** Sample an unconditioned (unigram) token. */
    int sampleUnigram(Rng &rng) const;

    /** Sample a token sequence of length n starting from a random token. */
    std::vector<int> sampleSequence(int n, Rng &rng) const;

  private:
    int vocab_;
    uint64_t seed_;
    double peakMass_;
    ZipfSampler zipf_;
    std::vector<double> weights_;   // normalized geometric slot weights
};

} // namespace specee::oracle

#endif // SPECEE_ORACLE_CORPUS_HH
