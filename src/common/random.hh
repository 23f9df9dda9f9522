/**
 * @file
 * Deterministic pseudo-random number generation for simulations.
 *
 * A thin wrapper around xoshiro256** with convenience draws. Every
 * simulator component takes an explicit Rng (or a seed) so experiments
 * are reproducible and components are independent.
 */

#ifndef HIRISE_COMMON_RANDOM_HH
#define HIRISE_COMMON_RANDOM_HH

#include <cmath>
#include <cstdint>

namespace hirise {

/**
 * One splitmix64 scramble step (Steele et al.). Used standalone to
 * derive statistically independent per-task seeds from a campaign
 * base seed: the derivation is a pure function of (seed, index), so
 * sharded runs are deterministic for any thread count or execution
 * order.
 */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Deterministic per-task seed for shard @p index of campaign seed
 *  @p seed (loadSweep points, fuzz batches, seed sweeps). */
constexpr std::uint64_t
shardSeed(std::uint64_t seed, std::uint64_t index)
{
    return splitmix64(seed ^ (0xd1b54a32d192ed03ull * (index + 1)));
}

// ---------------------------------------------------------------------
// Counter-based (stateless) streams
// ---------------------------------------------------------------------
//
// A counter stream is a pure function of (seed, lane, tick): lane
// identifies an independent logical stream (e.g. one per input port
// and draw purpose), tick is the position within it (e.g. the sim
// cycle). Unlike the sequential Rng below, draws are order-independent
// and skippable, so an event-driven consumer can evaluate exactly the
// ticks it needs and still agree bit-for-bit with a dense consumer
// that evaluates every tick.

/** Per-(seed, lane) stream key; hoist out of tick loops. */
constexpr std::uint64_t
counterKey(std::uint64_t seed, std::uint64_t lane)
{
    return splitmix64(seed ^ (0xd1b54a32d192ed03ull * (lane + 1)));
}

/** Per-tick stride of a counter stream (the splitmix64 increment). */
constexpr std::uint64_t kCounterTickMul = 0x9e3779b97f4a7c15ull;

/** Raw 64-bit draw at @p tick of the stream keyed by @p key. */
constexpr std::uint64_t
counterDrawKeyed(std::uint64_t key, std::uint64_t tick)
{
    return splitmix64(key + kCounterTickMul * tick);
}

/** Raw 64-bit draw at (seed, lane, tick). */
constexpr std::uint64_t
counterDraw(std::uint64_t seed, std::uint64_t lane, std::uint64_t tick)
{
    return counterDrawKeyed(counterKey(seed, lane), tick);
}

/** Map a raw draw to a uniform double in [0, 1) (same 53-bit mantissa
 *  construction as Rng::uniform). */
constexpr double
counterUniform(std::uint64_t draw)
{
    return static_cast<double>(draw >> 11) * 0x1.0p-53;
}

/**
 * Integer threshold T such that, for every raw draw d,
 *     (d >> 11) < T  <=>  counterUniform(d) < p.
 * Proof: m = d >> 11 is an integer < 2^53, m * 2^-53 is exact in
 * double, so the float compare is the real compare m < p * 2^53; for
 * integer m that is m < ceil(p * 2^53). p * 2^53 is computed exactly
 * (scaling by a power of two). Lets the geometric-skip scan test one
 * shift+compare per cycle instead of an int->double conversion.
 */
constexpr std::uint64_t
bernoulliThreshold(double p)
{
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return 1ull << 53;
    const double s = p * 0x1.0p53;
    const auto t = static_cast<std::uint64_t>(s); // floor (s > 0)
    return t + (static_cast<double>(t) < s ? 1 : 0);
}

/** First tick in [from, limit) whose draw on the stream keyed by
 *  @p key passes the Bernoulli threshold @p thr (bernoulliThreshold),
 *  or @p limit: one hash and one compare per tick scanned. */
constexpr std::uint64_t
counterNextPass(std::uint64_t key, std::uint64_t thr, std::uint64_t from,
                std::uint64_t limit)
{
    for (std::uint64_t t = from; t < limit; ++t) {
        if ((counterDrawKeyed(key, t) >> 11) < thr)
            return t;
    }
    return limit;
}

/** Bernoulli(p) decision for a raw draw. */
constexpr bool
counterBernoulli(std::uint64_t draw, double p)
{
    return (draw >> 11) < bernoulliThreshold(p);
}

/** Uniform integer in [0, bound) from a raw draw (Lemire reduction,
 *  same map as Rng::below). @pre bound > 0. */
constexpr std::uint64_t
counterBelow(std::uint64_t draw, std::uint64_t bound)
{
    const unsigned __int128 m =
        static_cast<unsigned __int128>(draw) * bound;
    return static_cast<std::uint64_t>(m >> 64);
}

/** Geometric draw (failures before first success) via the inverse
 *  CDF, so one raw draw suffices; mean (1-p)/p like Rng::geometric. */
inline std::uint64_t
counterGeometric(std::uint64_t draw, double p)
{
    if (p >= 1.0)
        return 0;
    const double u = counterUniform(draw);
    return static_cast<std::uint64_t>(std::log1p(-u) / std::log1p(-p));
}

/**
 * xoshiro256** PRNG (Blackman & Vigna). Fast, high quality, and fully
 * deterministic across platforms, unlike std::mt19937 distributions.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        // splitmix64 seeding to fill the state from a single word.
        for (std::uint64_t i = 0; i < 4; ++i)
            state_[i] = splitmix64(seed + i * 0x9e3779b97f4a7c15ull);
    }

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's nearly-divisionless bounded draw (biased by < 2^-64,
        // irrelevant for simulation purposes).
        const unsigned __int128 m =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p. */
    bool bernoulli(double p) { return uniform() < p; }

    /** Geometric draw: number of failures before first success. */
    std::uint64_t
    geometric(double p)
    {
        if (p >= 1.0)
            return 0;
        std::uint64_t n = 0;
        while (!bernoulli(p))
            ++n;
        return n;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace hirise

#endif // HIRISE_COMMON_RANDOM_HH
