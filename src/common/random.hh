/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Every stochastic element of the model (clock jitter, PLL re-lock
 * time, initial clock phases, workload data) draws from an explicitly
 * seeded Rng so that simulations are exactly reproducible.
 */

#ifndef MCD_COMMON_RANDOM_HH
#define MCD_COMMON_RANDOM_HH

#include <cmath>
#include <cstdint>
#include <string_view>

namespace mcd {

/**
 * One splitmix64 step: advance @p state and return the next value.
 * The standard seeding/stream-splitting primitive: full-period,
 * avalanching, and cheap enough to run a few rounds per derivation.
 */
inline std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * FNV-1a 64-bit hash of @p s: the stream-name hash below, and the
 * expcache checksum, leg-set key hash, fuzz workload names and soak
 * row digests. Stable across platforms and processes. The offset
 * basis is one digit short of the published 14695981039346656037;
 * it stays, because every cache file name, workload name and stream
 * seed in the tree derives from it.
 */
inline std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * Derive an independent sub-seed for the named stream of a root seed.
 *
 * Different stream names (or different roots) give statistically
 * independent generators, so components that each need their own
 * deterministic randomness — the workload generator, the config
 * fuzzer, fault-plan sampling — can all draw from one user-visible
 * seed without their draws interleaving: adding a draw to one stream
 * never perturbs another.
 *
 * The name is FNV-1a-hashed into the root, then two splitmix64
 * rounds spread the (possibly low-entropy) combination across all 64
 * bits. Purely a function of (root, stream): stable across platforms
 * and processes.
 */
inline std::uint64_t
streamSeed(std::uint64_t root, std::string_view stream)
{
    std::uint64_t s = root ^ fnv1a(stream);
    splitmix64(s);
    return splitmix64(s);
}

/**
 * Fold an index into a stream seed (e.g. per-tuple streams of a soak
 * run): deterministic, and adjacent indices land far apart.
 */
inline std::uint64_t
streamSeedAt(std::uint64_t root, std::string_view stream,
             std::uint64_t index)
{
    std::uint64_t s = streamSeed(root, stream) ^
        (index * 0xd1342543de82ef95ULL);
    return splitmix64(s);
}

/**
 * xorshift64* generator with Box-Muller Gaussian sampling.
 *
 * Small, fast, and statistically adequate for jitter modeling; chosen
 * over std::mt19937 for cross-platform bit-exact reproducibility.
 */
class Rng
{
  public:
    /** Construct with a nonzero seed (zero is remapped internally). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
        : state(seed ? seed : 0x9e3779b97f4a7c15ULL)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state = x;
        return x * 0x2545f4914f6cdd1dULL;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Uniform double in [lo, hi). */
    double
    uniformRange(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t
    uniformInt(std::uint64_t n)
    {
        return next() % n;
    }

    /**
     * Gaussian sample via Box-Muller.
     *
     * @param mean distribution mean
     * @param sigma standard deviation
     */
    double
    normal(double mean, double sigma)
    {
        if (hasSpare) {
            hasSpare = false;
            return mean + sigma * spare;
        }
        double u1 = uniform();
        double u2 = uniform();
        // Guard against log(0).
        if (u1 < 1e-300)
            u1 = 1e-300;
        double r = std::sqrt(-2.0 * std::log(u1));
        double theta = 2.0 * 3.14159265358979323846 * u2;
        spare = r * std::sin(theta);
        hasSpare = true;
        return mean + sigma * r * std::cos(theta);
    }

    /**
     * Gaussian sample truncated to [mean - k*sigma, mean + k*sigma].
     * Used for clock jitter where unbounded tails would let simulated
     * time run backwards.
     */
    double
    normalClamped(double mean, double sigma, double k)
    {
        double v = normal(mean, sigma);
        double lo = mean - k * sigma;
        double hi = mean + k * sigma;
        if (v < lo)
            return lo;
        if (v > hi)
            return hi;
        return v;
    }

  private:
    std::uint64_t state;
    bool hasSpare = false;
    double spare = 0.0;
};

/** An Rng seeded for the named stream of @p root (see streamSeed). */
inline Rng
streamRng(std::uint64_t root, std::string_view stream)
{
    return Rng(streamSeed(root, stream));
}

} // namespace mcd

#endif // MCD_COMMON_RANDOM_HH
