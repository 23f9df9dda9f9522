/**
 * @file
 * Unit tests for the word-parallel BitVec underlying the arbitration
 * hot path, including cross-checks against a std::vector<bool> model
 * at sizes that straddle word boundaries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bitvec.hh"
#include "common/random.hh"
#include "common/simd.hh"

using namespace hirise;

TEST(BitVec, StartsEmpty)
{
    BitVec b(130);
    EXPECT_EQ(b.size(), 130u);
    EXPECT_EQ(b.numWords(), 3u);
    EXPECT_TRUE(b.none());
    EXPECT_FALSE(b.any());
    EXPECT_EQ(b.count(), 0u);
    EXPECT_EQ(b.firstSet(), BitVec::kNpos);
}

TEST(BitVec, SetResetTestAcrossWordBoundaries)
{
    BitVec b(130);
    for (std::uint32_t i : {0u, 63u, 64u, 127u, 128u, 129u}) {
        EXPECT_FALSE(b[i]);
        b.set(i);
        EXPECT_TRUE(b[i]);
    }
    EXPECT_EQ(b.count(), 6u);
    b.reset(64);
    EXPECT_FALSE(b[64]);
    EXPECT_EQ(b.count(), 5u);
    b.assign(64, true);
    EXPECT_TRUE(b[64]);
    b.clear();
    EXPECT_TRUE(b.none());
}

TEST(BitVec, FillMasksTailBits)
{
    BitVec b(70);
    b.fill();
    EXPECT_EQ(b.count(), 70u);
    for (std::uint32_t i = 0; i < 70; ++i)
        EXPECT_TRUE(b[i]);
    // The 58 tail bits of word 1 must stay zero or count() would lie.
    EXPECT_EQ(b.words()[1], (BitVec::Word(1) << 6) - 1);
}

TEST(BitVec, FirstAndNextSetIteration)
{
    BitVec b(200);
    for (std::uint32_t i : {3u, 64u, 65u, 199u})
        b.set(i);
    EXPECT_EQ(b.firstSet(), 3u);
    EXPECT_EQ(b.nextSet(3), 64u);
    EXPECT_EQ(b.nextSet(64), 65u);
    EXPECT_EQ(b.nextSet(65), 199u);
    EXPECT_EQ(b.nextSet(199), BitVec::kNpos);

    std::vector<std::uint32_t> seen;
    b.forEachSet([&](std::uint32_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, (std::vector<std::uint32_t>{3, 64, 65, 199}));
}

TEST(BitVec, WordParallelOps)
{
    BitVec a(100), b(100);
    a.set(1);
    a.set(70);
    a.set(99);
    b.set(70);
    b.set(99);
    b.set(2);

    BitVec x = a;
    x &= b;
    EXPECT_EQ(x.count(), 2u);
    EXPECT_TRUE(x[70]);
    EXPECT_TRUE(x[99]);

    BitVec y = a;
    y |= b;
    EXPECT_EQ(y.count(), 4u);

    BitVec z = a;
    z.andNot(b);
    EXPECT_EQ(z.count(), 1u);
    EXPECT_TRUE(z[1]);

    EXPECT_TRUE(a.intersects(b));
    EXPECT_FALSE(z.intersects(b));
    EXPECT_TRUE(a == a);
    EXPECT_FALSE(a == b);
}

TEST(BitVec, CopyFromReusesCapacity)
{
    BitVec a(64), b(64);
    a.set(5);
    a.set(63);
    b.copyFrom(a);
    EXPECT_TRUE(b == a);
    a.reset(5);
    EXPECT_TRUE(b[5]); // deep copy, not aliasing
}

TEST(BitVec, MatchesVectorBoolModelUnderRandomOps)
{
    for (std::uint32_t n : {1u, 63u, 64u, 65u, 128u, 257u}) {
        BitVec b(n);
        std::vector<bool> m(n, false);
        Rng rng(n);
        for (int t = 0; t < 2000; ++t) {
            std::uint32_t i = static_cast<std::uint32_t>(rng.below(n));
            bool v = rng.bernoulli(0.5);
            b.assign(i, v);
            m[i] = v;
        }
        std::uint32_t count = 0, first = BitVec::kNpos;
        for (std::uint32_t i = 0; i < n; ++i) {
            ASSERT_EQ(b[i], m[i]) << "n=" << n << " bit " << i;
            if (m[i]) {
                ++count;
                if (first == BitVec::kNpos)
                    first = i;
            }
        }
        EXPECT_EQ(b.count(), count);
        EXPECT_EQ(b.firstSet(), first);
    }
}

// ---------------------------------------------------------------------
// Word operations and lane kernels (common/bitvec.hh, common/simd.hh),
// each checked against a naive per-bit or per-lane reference at odd
// tail lengths. The OnEveryTier suffix of the names predates the
// single scalar kernel tier; the test ids are kept stable.
// ---------------------------------------------------------------------

namespace {

std::vector<simd::Word>
randomWords(Rng &rng, std::size_t n)
{
    std::vector<simd::Word> w(n);
    for (auto &x : w)
        x = rng.next();
    return w;
}

/** BitVec of n full words holding @p w. */
BitVec
fromWords(const std::vector<simd::Word> &w)
{
    BitVec b(static_cast<std::uint32_t>(w.size()) * BitVec::kWordBits);
    std::copy(w.begin(), w.end(), b.words());
    return b;
}

std::vector<simd::Word>
toWords(const BitVec &b)
{
    return {b.words(), b.words() + b.numWords()};
}

} // namespace

TEST(Simd, WordKernelsMatchScalarReferenceOnEveryTier)
{
    // The BitVec bulk word ops against per-word references, at every
    // word count 0..17.
    Rng rng(1);
    for (std::size_t n = 0; n <= 17; ++n) {
        const auto a0 = randomWords(rng, n);
        const auto b0 = randomWords(rng, n);
        const BitVec a = fromWords(a0);
        const BitVec b = fromWords(b0);
        BitVec d = a;
        d.clear();
        EXPECT_TRUE(std::all_of(d.words(), d.words() + n,
                                [](simd::Word w) { return !w; }));
        d.copyFrom(a);
        EXPECT_EQ(toWords(d), a0);
        d &= b;
        for (std::size_t k = 0; k < n; ++k)
            EXPECT_EQ(d.words()[k], a0[k] & b0[k]);
        d.copyFrom(a);
        d |= b;
        for (std::size_t k = 0; k < n; ++k)
            EXPECT_EQ(d.words()[k], a0[k] | b0[k]);
        d.copyFrom(a);
        d.andNot(b);
        for (std::size_t k = 0; k < n; ++k)
            EXPECT_EQ(d.words()[k], a0[k] & ~b0[k]);
        EXPECT_EQ(a.any(), n > 0);
        BitVec z(static_cast<std::uint32_t>(n) * BitVec::kWordBits);
        EXPECT_FALSE(z.any());
        if (n) {
            z.set(static_cast<std::uint32_t>(n - 1) *
                  BitVec::kWordBits); // only the tail word set
            EXPECT_TRUE(z.any());
        }
    }
}

TEST(Simd, GatherNonSentinelMatchesScalarScanOnEveryTier)
{
    // The kernel must emit the surviving indices ascending (the
    // fabric's request-binning order — and with it phase-1 picks —
    // depends on that).
    constexpr std::uint32_t kSentinel = ~0u;
    Rng rng(3);
    for (std::uint32_t n :
         {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 33u, 100u}) {
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<std::uint32_t> v(n);
            std::vector<std::uint32_t> want;
            for (std::uint32_t i = 0; i < n; ++i) {
                if (rng.bernoulli(0.4)) {
                    v[i] = static_cast<std::uint32_t>(rng.below(1000));
                    want.push_back(i);
                } else {
                    v[i] = kSentinel;
                }
            }
            std::vector<std::uint32_t> out(n + 1, 0xdeadbeefu);
            std::uint32_t m = simd::gatherNonSentinelU32(
                v.data(), n, kSentinel, out.data());
            ASSERT_EQ(m, want.size()) << "n=" << n;
            for (std::uint32_t k = 0; k < m; ++k)
                EXPECT_EQ(out[k], want[k]) << "n=" << n << " k=" << k;
        }
    }
}

TEST(Simd, HalveU32MatchesScalarShiftOnEveryTier)
{
    Rng rng(6);
    for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 16u, 17u, 129u}) {
        std::vector<std::uint32_t> v0(n);
        for (auto &x : v0)
            x = static_cast<std::uint32_t>(rng.next());
        auto v = v0;
        simd::halveU32(v.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(v[i], v0[i] >> 1) << "n=" << n << " i=" << i;
    }
}

