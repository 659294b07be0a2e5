/**
 * @file
 * Shared helpers for the test suite: a lazily-built tiny pipeline so
 * expensive training happens once per test binary, and an FNV-1a
 * digest that pins results bit for bit.
 */

#ifndef SPECEE_TESTS_TEST_UTIL_HH
#define SPECEE_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

#include "engines/pipeline.hh"
#include "tensor/simd.hh"

namespace specee::testutil {

/** Options for the shared tiny pipeline (8 layers, vocab 512). */
inline engines::PipelineOptions
tinyPipelineOptions()
{
    engines::PipelineOptions o;
    o.model = "tiny";
    o.train_instances = 6;
    o.train_gen_len = 36;
    o.mlp_hidden = 64;
    o.train_cfg.epochs = 25;
    o.seed = 42;
    return o;
}

/** Shared tiny pipeline, built on first use. */
inline const engines::Pipeline &
tinyPipeline()
{
    static const engines::Pipeline pipe(tinyPipelineOptions());
    return pipe;
}

/** Standard small workload options for engine tests. */
inline workload::GenOptions
smallGen(int instances = 4, int gen_len = 32, uint64_t seed = 99)
{
    workload::GenOptions g;
    g.n_instances = instances;
    g.gen_len = gen_len;
    g.seed = seed;
    return g;
}

/** FNV-1a over raw bytes: pins values bit for bit. */
class Digest
{
  public:
    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ull;
        }
    }

    template <typename T>
    void
    pod(const T &v)
    {
        bytes(&v, sizeof(T));
    }

    void
    span(tensor::CSpan v)
    {
        bytes(v.data(), v.size() * sizeof(float));
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Unsets an environment variable for one scope and restores it on
 * exit, so a value set for the whole process (CI forces
 * SPECEE_TRACE) still reaches the tests that run later.
 */
class ScopedUnsetenv
{
  public:
    explicit ScopedUnsetenv(const char *name) : name_(name)
    {
        if (const char *v = std::getenv(name))
            saved_ = v;
        unsetenv(name);
    }

    ~ScopedUnsetenv()
    {
        if (saved_)
            setenv(name_.c_str(), saved_->c_str(), 1);
    }

    ScopedUnsetenv(const ScopedUnsetenv &) = delete;
    ScopedUnsetenv &operator=(const ScopedUnsetenv &) = delete;

  private:
    std::string name_;
    std::optional<std::string> saved_;
};

/**
 * The expected digest for the kernels in use: the AVX2 and scalar
 * dot products round differently, so each pins its own value.
 */
inline uint64_t
pinned(uint64_t avx2, uint64_t scalar)
{
    return tensor::simd::activeLevel() == tensor::simd::Level::Avx2
               ? avx2
               : scalar;
}

} // namespace specee::testutil

#endif // SPECEE_TESTS_TEST_UTIL_HH
