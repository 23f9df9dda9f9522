/**
 * @file
 * Property tests for the crossbar scheduler family against the
 * offline MWM oracle (arb/mwm.hh) and its fluid throughput bound
 * (sim/mwm_bound.hh):
 *
 *  - the MWM fluid bound dominates every online scheduler's measured
 *    throughput at every (pattern, load) point;
 *  - iSLIP at k = n, PIM at k = n, and the wavefront allocator all
 *    produce valid *maximal* matchings on arbitrary request matrices
 *    (so each is a 1/2-approximation of the MWM cardinality);
 *  - the Hungarian oracle itself agrees with brute force.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "arb/mwm.hh"
#include "arb/scheduler.hh"
#include "common/bitvec.hh"
#include "common/random.hh"
#include "sim/mwm_bound.hh"
#include "sim/sweep.hh"
#include "traffic/pattern.hh"

using namespace hirise;
using namespace hirise::arb;

namespace {

constexpr std::uint32_t kNoWin = CrossbarScheduler::kNone;

/** Random request matrix rig driven by the counter RNG. */
struct ReqMatrix
{
    ReqMatrix(std::uint32_t n) : n(n), contended(n), want(n, BitVec(n))
    {}

    /** Each (i, o) cell requested independently with probability
     *  @p num / @p den; multi-request (VOQ-style) by construction. */
    void
    randomize(std::uint64_t key, std::uint64_t &tick, std::uint32_t num,
              std::uint32_t den)
    {
        contended.clear();
        for (auto &w : want)
            w.clear();
        for (std::uint32_t i = 0; i < n; ++i) {
            for (std::uint32_t o = 0; o < n; ++o) {
                if (counterBelow(counterDrawKeyed(key, tick++), den) <
                    num) {
                    contended.set(o);
                    want[o].set(i);
                }
            }
        }
    }

    std::vector<std::uint32_t>
    runThrough(ColumnScheduler &s) const
    {
        std::vector<std::uint32_t> winner(n, kNoWin);
        if (contended.count())
            s.match(contended, want, winner);
        return winner;
    }

    /** winner[o] is a requestor of o and no input wins twice. */
    void
    expectValidMatching(const std::vector<std::uint32_t> &winner) const
    {
        std::vector<bool> used(n, false);
        for (std::uint32_t o = 0; o < n; ++o) {
            if (!contended[o]) {
                EXPECT_EQ(winner[o], kNoWin);
                continue;
            }
            std::uint32_t i = winner[o];
            if (i == kNoWin)
                continue;
            ASSERT_LT(i, n);
            EXPECT_TRUE(want[o][i]) << "o=" << o << " i=" << i;
            EXPECT_FALSE(used[i]) << "input " << i << " double-granted";
            used[i] = true;
        }
    }

    /** No requested (i, o) pair has both endpoints unmatched. */
    void
    expectMaximal(const std::vector<std::uint32_t> &winner) const
    {
        std::vector<bool> matchedIn(n, false);
        for (std::uint32_t o = 0; o < n; ++o)
            if (winner[o] != kNoWin)
                matchedIn[winner[o]] = true;
        for (std::uint32_t o = 0; o < n; ++o) {
            if (winner[o] != kNoWin)
                continue;
            for (std::uint32_t i = 0; i < n; ++i)
                EXPECT_FALSE(want[o][i] && !matchedIn[i])
                    << "augmenting edge (" << i << ", " << o << ")";
        }
    }

    std::uint32_t
    matchSize(const std::vector<std::uint32_t> &winner) const
    {
        std::uint32_t m = 0;
        for (std::uint32_t o = 0; o < n; ++o)
            m += winner[o] != kNoWin;
        return m;
    }

    /** Maximum-cardinality size via the MWM oracle on 0/1 weights. */
    std::uint32_t
    maxCardinality() const
    {
        std::vector<std::int64_t> w(std::size_t(n) * n, 0);
        for (std::uint32_t o = 0; o < n; ++o)
            for (std::uint32_t i = 0; i < n; ++i)
                if (want[o][i])
                    w[std::size_t(i) * n + o] = 1;
        return maxWeightMatching(n, w).size;
    }

    std::uint32_t n;
    BitVec contended;
    std::vector<BitVec> want;
};

} // namespace

// ---------------------------------------------------------------------
// Matching-quality properties (direct match() calls)
// ---------------------------------------------------------------------

TEST(SchedProperty, IterativeSchedulersAreValidAndMaximal)
{
    constexpr std::uint32_t n = 16;
    const std::uint64_t key = counterKey(0xfeedULL, 0);
    std::uint64_t tick = 0;

    IslipScheduler islip(n, n);
    PimScheduler pim(n, n, 99);
    WavefrontScheduler wf(n);
    ReqMatrix m(n);

    for (int trial = 0; trial < 64; ++trial) {
        // Sweep densities from sparse to nearly full.
        m.randomize(key, tick, 1 + trial % 8, 8);
        std::uint32_t best = m.maxCardinality();
        for (ColumnScheduler *s :
             {static_cast<ColumnScheduler *>(&islip),
              static_cast<ColumnScheduler *>(&pim),
              static_cast<ColumnScheduler *>(&wf)}) {
            auto winner = m.runThrough(*s);
            m.expectValidMatching(winner);
            m.expectMaximal(winner);
            std::uint32_t got = m.matchSize(winner);
            EXPECT_LE(got, best);
            // A maximal matching is a 1/2-approximation of maximum.
            EXPECT_GE(2 * got, best);
        }
    }
}

TEST(SchedProperty, LrgIsValidOnDegreeOneMatrices)
{
    constexpr std::uint32_t n = 16;
    const std::uint64_t key = counterKey(0xbeefULL, 0);
    std::uint64_t tick = 0;

    LrgScheduler lrg(n);
    // The column form: ascending columns, pick then demote.
    std::vector<MatrixArbiter> ref(n, MatrixArbiter(n));
    ReqMatrix m(n);
    std::vector<std::uint32_t> req(n), active, holder(n);
    BitVec grant(n);
    for (int trial = 0; trial < 64; ++trial) {
        // Degree-1: each input requests at most one output — the
        // request list the fabric hands schedule(), with every output
        // free.
        m.contended.clear();
        for (auto &w : m.want)
            w.clear();
        active.clear();
        for (std::uint32_t i = 0; i < n; ++i) {
            auto d = counterBelow(counterDrawKeyed(key, tick++), n + 4);
            req[i] = kNoWin;
            if (d >= n)
                continue; // idle input
            req[i] = static_cast<std::uint32_t>(d);
            active.push_back(i);
            m.contended.set(req[i]);
            m.want[d].set(i);
        }
        std::fill(holder.begin(), holder.end(), kNoWin);
        grant.clear();
        if (!active.empty())
            lrg.schedule(req, active, holder, grant);
        // holder[o] is the winner of column o; each grant is recorded
        // there and nowhere else.
        m.expectValidMatching(holder);
        std::uint32_t granted = 0;
        for (std::uint32_t o = 0; o < n; ++o) {
            if (holder[o] == kNoWin)
                continue;
            EXPECT_TRUE(grant[holder[o]]) << "o=" << o;
            ++granted;
        }
        EXPECT_EQ(grant.count(), granted);
        m.contended.forEachSet([&](std::uint32_t o) {
            const std::uint32_t w = ref[o].pick(m.want[o]);
            EXPECT_EQ(holder[o], w) << "o=" << o;
            ref[o].update(w);
        });
        // Degree-1 columns are independent: every contended column
        // must be served, which is the maximum matching here.
        EXPECT_EQ(m.matchSize(holder), m.contended.count());
        EXPECT_EQ(m.matchSize(holder), m.maxCardinality());
    }
}

TEST(SchedProperty, IslipFullIterationsMatchWavefrontOnDenseLoad)
{
    // Under all-to-all requests every maximal matching is perfect, so
    // iSLIP at k = n and the wavefront allocator agree on size.
    constexpr std::uint32_t n = 12;
    IslipScheduler islip(n, n);
    WavefrontScheduler wf(n);
    ReqMatrix m(n);
    for (std::uint32_t o = 0; o < n; ++o) {
        m.contended.set(o);
        for (std::uint32_t i = 0; i < n; ++i)
            m.want[o].set(i);
    }
    for (int cycle = 0; cycle < 8; ++cycle) {
        EXPECT_EQ(m.matchSize(m.runThrough(islip)), n);
        EXPECT_EQ(m.matchSize(m.runThrough(wf)), n);
    }
}

// ---------------------------------------------------------------------
// Hungarian oracle vs brute force
// ---------------------------------------------------------------------

TEST(SchedProperty, HungarianMatchesBruteForce)
{
    constexpr std::uint32_t n = 5;
    const std::uint64_t key = counterKey(0x5eedULL, 0);
    std::uint64_t tick = 0;

    for (int trial = 0; trial < 50; ++trial) {
        std::vector<std::int64_t> w(n * n);
        for (auto &x : w)
            x = static_cast<std::int64_t>(
                counterBelow(counterDrawKeyed(key, tick++), 10));

        std::vector<std::uint32_t> perm(n);
        std::iota(perm.begin(), perm.end(), 0u);
        std::int64_t best = 0;
        do {
            std::int64_t s = 0;
            for (std::uint32_t i = 0; i < n; ++i)
                s += w[i * n + perm[i]];
            best = std::max(best, s);
        } while (std::next_permutation(perm.begin(), perm.end()));

        auto res = maxWeightMatching(n, w);
        EXPECT_EQ(res.weight, best) << "trial " << trial;
        // Reported pairs must be consistent with the total.
        std::int64_t check = 0;
        std::vector<bool> used(n, false);
        for (std::uint32_t o = 0; o < n; ++o) {
            std::uint32_t i = res.inputOf[o];
            if (i == ~0u)
                continue;
            ASSERT_LT(i, n);
            EXPECT_FALSE(used[i]);
            used[i] = true;
            EXPECT_GT(w[i * n + o], 0);
            check += w[i * n + o];
        }
        EXPECT_EQ(check, res.weight);
    }
}

// ---------------------------------------------------------------------
// MWM fluid bound vs measured throughput
// ---------------------------------------------------------------------

namespace {

sim::SimConfig
quickCfg()
{
    sim::SimConfig cfg;
    cfg.warmupCycles = 1000;
    cfg.measureCycles = 4000;
    cfg.seed = 12345;
    return cfg;
}

std::vector<std::pair<const char *, SwitchSpec>>
allSchedulers(std::uint32_t radix)
{
    SwitchSpec base;
    base.topo = Topology::Flat2D;
    base.radix = radix;
    base.arb = ArbScheme::Lrg;
    std::vector<std::pair<const char *, SwitchSpec>> out;
    out.emplace_back("LRG", base);
    SwitchSpec s = base;
    s.arb = ArbScheme::Islip;
    s.schedIters = 1;
    out.emplace_back("iSLIP/1", s);
    s.schedIters = 4;
    out.emplace_back("iSLIP/4", s);
    s = base;
    s.arb = ArbScheme::Pim;
    s.schedIters = 2;
    s.schedSeed = 7;
    out.emplace_back("PIM/2", s);
    s = base;
    s.arb = ArbScheme::Wavefront;
    out.emplace_back("WF", s);
    return out;
}

std::vector<std::pair<const char *, sim::PatternFactory>>
allPatterns(std::uint32_t r)
{
    return {
        {"uniform",
         [r] { return std::make_shared<traffic::UniformRandom>(r); }},
        {"hotspot",
         [r] {
             return std::make_shared<traffic::Hotspot>(r, r - 1);
         }},
        {"transpose",
         [r] { return std::make_shared<traffic::Transpose>(r); }},
        {"bit-complement",
         [r] { return std::make_shared<traffic::BitComplement>(r); }},
        {"bursty",
         [r] { return std::make_shared<traffic::Bursty>(r, 8.0); }},
    };
}

} // namespace

TEST(SchedProperty, MwmBoundDominatesEveryScheduler)
{
    constexpr std::uint32_t radix = 16;
    auto cfg = quickCfg();
    for (const auto &[pname, make] : allPatterns(radix)) {
        auto proto = make();
        for (double load : {0.3, 0.7, 1.0}) {
            double bound = sim::mwmAcceptedFlitsBound(
                radix, cfg.packetLen, *proto, load);
            for (const auto &[sname, spec] : allSchedulers(radix)) {
                auto res =
                    sim::runAtLoadCached(spec, cfg, make, load);
                // Small slack: the finite measurement window can
                // deliver warmup-queued packets slightly above the
                // steady-state fluid rate.
                EXPECT_LE(res.acceptedFlitsPerCycle,
                          bound * 1.02 + 0.05)
                    << sname << " on " << pname << " @ " << load;
            }
        }
    }
}

TEST(SchedProperty, MwmBoundHandValues)
{
    // One packet = 4 flits, serviced in 1 arbitration + 4 transfer
    // cycles -> 0.2 packets = 0.8 flits/cycle per saturated port.
    auto cfg = quickCfg();
    traffic::UniformRandom ur(16);
    EXPECT_NEAR(sim::mwmAcceptedFlitsBound(16, cfg.packetLen, ur, 1.0),
                16 * 0.8, 1e-9);
    // Below port saturation the bound is injection-limited.
    EXPECT_NEAR(sim::mwmAcceptedFlitsBound(16, cfg.packetLen, ur, 0.1),
                16 * 0.1 * 4, 1e-9);
    traffic::Hotspot hs(16, 15);
    EXPECT_NEAR(sim::mwmAcceptedFlitsBound(16, cfg.packetLen, hs, 1.0),
                0.8, 1e-9);
}
