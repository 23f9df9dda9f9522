/**
 * @file
 * Tests for the arbitration library: matrix LRG, class counters, and
 * the three sub-block arbiter schemes, including the paper's worked
 * examples from sections III-B2 (Fig 4) and III-B4 (Fig 5).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "arb/class_counter.hh"
#include "arb/matrix_arbiter.hh"
#include "arb/scheduler.hh"
#include "arb/sub_block_arbiter.hh"
#include "check/oracle.hh"
#include "common/bitvec.hh"
#include "common/random.hh"
#include "common/snapshot.hh"

using namespace hirise;
using namespace hirise::arb;

// ---------------------------------------------------------------------
// MatrixArbiter
// ---------------------------------------------------------------------

TEST(MatrixArbiter, EmptyRequestGrantsNone)
{
    MatrixArbiter a(4);
    EXPECT_EQ(a.pick(std::vector<bool>(4, false)), MatrixArbiter::kNone);
}

TEST(MatrixArbiter, SingleRequestorAlwaysWins)
{
    MatrixArbiter a(4);
    std::vector<bool> req(4, false);
    req[2] = true;
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(a.pick(req), 2u);
        a.update(2);
    }
}

TEST(MatrixArbiter, InitialOrderIsByIndex)
{
    MatrixArbiter a(5);
    std::vector<bool> req(5, true);
    EXPECT_EQ(a.pick(req), 0u);
    EXPECT_TRUE(a.outranks(1, 3));
    EXPECT_FALSE(a.outranks(3, 1));
}

TEST(MatrixArbiter, GrantDemotesWinnerBelowEveryone)
{
    MatrixArbiter a(4);
    std::vector<bool> req(4, true);
    EXPECT_EQ(a.pick(req), 0u);
    a.update(0);
    for (std::uint32_t j = 1; j < 4; ++j)
        EXPECT_TRUE(a.outranks(j, 0));
    EXPECT_EQ(a.pick(req), 1u);
}

TEST(MatrixArbiter, LrgRotatesThroughPersistentRequestors)
{
    MatrixArbiter a(6);
    std::vector<bool> req(6, true);
    std::vector<std::uint32_t> seq;
    for (int i = 0; i < 12; ++i) {
        auto w = a.pick(req);
        a.update(w);
        seq.push_back(w);
    }
    // Two full rotations of 0..5.
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(seq[i], static_cast<std::uint32_t>(i % 6));
}

TEST(MatrixArbiter, OrderIsAlwaysAStrictTotalOrder)
{
    // Property: after arbitrary grant sequences, order() is a
    // permutation and outranks() is consistent with it.
    MatrixArbiter a(8);
    Rng rng(99);
    for (int it = 0; it < 200; ++it) {
        a.update(static_cast<std::uint32_t>(rng.below(8)));
        auto ord = a.order();
        ASSERT_EQ(ord.size(), 8u);
        std::vector<bool> seen(8, false);
        for (auto v : ord) {
            ASSERT_LT(v, 8u);
            ASSERT_FALSE(seen[v]);
            seen[v] = true;
        }
        for (std::size_t i = 0; i < ord.size(); ++i)
            for (std::size_t j = i + 1; j < ord.size(); ++j)
                EXPECT_TRUE(a.outranks(ord[i], ord[j]));
    }
}

TEST(MatrixArbiter, NoStarvationUnderRandomRequests)
{
    MatrixArbiter a(8);
    Rng rng(5);
    std::vector<std::uint32_t> wins(8, 0);
    std::vector<bool> req(8);
    for (int it = 0; it < 4000; ++it) {
        bool any = false;
        for (int i = 0; i < 8; ++i) {
            req[i] = rng.bernoulli(0.5);
            any |= req[i];
        }
        if (!any)
            continue;
        auto w = a.pick(req);
        ASSERT_NE(w, MatrixArbiter::kNone);
        ASSERT_TRUE(req[w]);
        a.update(w);
        ++wins[w];
    }
    for (int i = 0; i < 8; ++i)
        EXPECT_GT(wins[i], 300u) << "port " << i << " starved";
}

TEST(MatrixArbiter, MultiWordPickMatchesNaiveLrg)
{
    // Radices spanning several priority-row words: an odd tail (130),
    // exactly four words (256) and more than eight words (520). The
    // reference is an explicit LRG list, highest priority first; a
    // grant moves the winner to the back.
    for (std::uint32_t n : {130u, 256u, 520u}) {
        MatrixArbiter a(n);
        std::vector<std::uint32_t> lrg(n);
        std::iota(lrg.begin(), lrg.end(), 0u);
        Rng rng(0x5eed + n);
        BitVec req(n);
        const double density[] = {0.005, 0.05, 0.5, 0.95};
        for (int it = 0; it < 3000; ++it) {
            const double p = density[it % 4];
            req.clear();
            for (std::uint32_t i = 0; i < n; ++i)
                if (rng.bernoulli(p))
                    req.set(i);
            std::uint32_t want = MatrixArbiter::kNone;
            for (std::uint32_t i : lrg) {
                if (req.test(i)) {
                    want = i;
                    break;
                }
            }
            const std::uint32_t got = a.pick(req);
            ASSERT_EQ(got, want) << "n=" << n << " it=" << it;
            if (got == MatrixArbiter::kNone)
                continue;
            a.update(got);
            lrg.erase(std::find(lrg.begin(), lrg.end(), got));
            lrg.push_back(got);
        }
    }
}

// ---------------------------------------------------------------------
// ClassCounterBank
// ---------------------------------------------------------------------

namespace {

/** The LRG matrix maintained the way the hardware does it: granting
 *  w clears row w and sets column w in every other row. */
class BitMatrixLrg
{
  public:
    explicit BitMatrixLrg(std::uint32_t n)
        : n_(n), words_((n + 63) / 64), m_(std::size_t(n) * words_, 0)
    {
        for (std::uint32_t i = 0; i < n; ++i)
            for (std::uint32_t j = i + 1; j < n; ++j)
                set(i, j, true);
    }

    void
    update(std::uint32_t w)
    {
        for (std::uint32_t j = 0; j < n_; ++j) {
            set(w, j, false);
            if (j != w)
                set(j, w, true);
        }
    }

    std::vector<std::uint8_t>
    bytes() const
    {
        snap::Writer w;
        w.vec(m_);
        return w.buffer();
    }

  private:
    void
    set(std::uint32_t i, std::uint32_t j, bool v)
    {
        const std::uint64_t bit = std::uint64_t(1) << (j % 64);
        auto &word = m_[std::size_t(i) * words_ + j / 64];
        word = v ? (word | bit) : (word & ~bit);
    }

    std::uint32_t n_;
    std::uint32_t words_;
    std::vector<std::uint64_t> m_;
};

std::vector<std::uint8_t>
savedBytes(const MatrixArbiter &a)
{
    snap::Writer w;
    a.save(w);
    return w.buffer();
}

} // namespace

TEST(MatrixArbiter, StampsSaveTheMatrixAndPickLikeTheReference)
{
    // The arbiter keeps last-grant stamps; its snapshot must still be
    // the hardware matrix byte for byte, load must rank a matrix back
    // into stamps, and every pick must match the naive matrix model.
    Rng rng(23);
    for (std::uint32_t n : {16u, 64u, 130u, 256u}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        MatrixArbiter arb(n);
        BitMatrixLrg mat(n);
        check::RefMatrixArbiter ref(n);
        EXPECT_EQ(savedBytes(arb), mat.bytes());
        for (int step = 0; step < 400; ++step) {
            std::vector<bool> req(n, false);
            const double density = rng.uniform();
            for (std::uint32_t i = 0; i < n; ++i)
                req[i] = rng.uniform() < density;
            const std::uint32_t got = arb.pick(req);
            const std::uint32_t want = ref.pick(req);
            ASSERT_EQ(got == MatrixArbiter::kNone,
                      want == check::kRefNone)
                << "step " << step;
            const std::uint32_t w =
                got != MatrixArbiter::kNone
                    ? got
                    : static_cast<std::uint32_t>(rng.below(n));
            if (got != MatrixArbiter::kNone) {
                ASSERT_EQ(got, want) << "step " << step;
            }
            arb.update(w);
            mat.update(w);
            ref.update(w);
            if (step % 50 == 49) {
                const auto bytes = savedBytes(arb);
                ASSERT_EQ(bytes, mat.bytes()) << "step " << step;
                // load -> save round-trips, and the restored arbiter
                // picks and updates on exactly as the original.
                MatrixArbiter back(n);
                snap::Reader r(bytes);
                back.load(r);
                ASSERT_TRUE(r.done());
                ASSERT_EQ(savedBytes(back), bytes);
                arb = back;
            }
        }
    }
}

TEST(ClassCounter, StartsInHighestClass)
{
    ClassCounterBank b(8, 2);
    for (std::uint32_t i = 0; i < 8; ++i)
        EXPECT_EQ(b.classOf(i), 0u);
}

TEST(ClassCounter, WinLowersPriorityClass)
{
    ClassCounterBank b(4, 2);
    b.onWin(1);
    EXPECT_EQ(b.classOf(1), 1u);
    EXPECT_EQ(b.classOf(0), 0u);
}

TEST(ClassCounter, SaturationHalvesWholeBank)
{
    ClassCounterBank b(4, 2);
    b.onWin(0);            // 1
    b.onWin(0);            // 2 (saturated value)
    b.onWin(1);            // input1 -> 1
    EXPECT_EQ(b.classOf(0), 2u);
    EXPECT_EQ(b.classOf(1), 1u);
    b.onWin(0);            // saturates: halve all, then increment
    EXPECT_EQ(b.classOf(0), 2u);
    EXPECT_EQ(b.classOf(1), 0u);
}

TEST(ClassCounter, HalvingPreservesRelativeOrder)
{
    ClassCounterBank b(3, 7);
    for (int i = 0; i < 3; ++i)
        b.onWin(0);
    for (int i = 0; i < 6; ++i)
        b.onWin(1);
    EXPECT_LT(b.classOf(2), b.classOf(0));
    EXPECT_LT(b.classOf(0), b.classOf(1));
    for (int i = 0; i < 2; ++i)
        b.onWin(1); // trigger saturation + halving
    EXPECT_LE(b.classOf(1), 7u);
    EXPECT_LT(b.classOf(2), b.classOf(0));
    EXPECT_LT(b.classOf(0), b.classOf(1));
}

// ---------------------------------------------------------------------
// Sub-block arbiters: paper examples
// ---------------------------------------------------------------------

namespace {

/**
 * Emulates the paper's section III-B example: inputs {3,7,11,15} on
 * layer 1 share the L2LC C1,4 (port 0); input {20} on layer 2 owns
 * C2,4 (port 1); 4 ports total (c=1, 4 layers) all competing for
 * output 63. The local switch is emulated with a MatrixArbiter whose
 * priority is only updated when its winner wins the sub-block
 * (back-propagated update).
 */
class PaperExample
{
  public:
    explicit PaperExample(SubBlockArbiter &sub)
        : sub_(sub), localL1_(16)
    {}

    /** Run one arbitration cycle; returns the winning primary input. */
    std::uint32_t
    cycle()
    {
        std::vector<bool> l1req(16, false);
        for (auto i : {3, 7, 11, 15})
            l1req[i] = true;
        std::uint32_t l1win = localL1_.pick(l1req);

        std::vector<SubBlockRequest> reqs(4);
        reqs[0] = {true, l1win, 4};  // C1,4 carries 4 requestors
        reqs[1] = {true, 20, 1};     // C2,4 carries input 20
        std::uint32_t p = sub_.arbitrate(reqs);
        if (p == 0)
            localL1_.update(l1win);
        return reqs[p].primaryInput;
    }

  private:
    SubBlockArbiter &sub_;
    MatrixArbiter localL1_;
};

std::map<std::uint32_t, int>
winHistogram(PaperExample &ex, int cycles)
{
    std::map<std::uint32_t, int> h;
    for (int i = 0; i < cycles; ++i)
        ++h[ex.cycle()];
    return h;
}

} // namespace

TEST(SubBlockArb, LayerLrgIsUnfairInPaperExample)
{
    // Paper Fig 4: with L-2-L LRG the lone input 20 alternates with
    // the four L1 inputs, taking ~1/2 of the output instead of 1/5.
    LrgSubArbiter sub(4);
    PaperExample ex(sub);
    auto h = winHistogram(ex, 200);
    EXPECT_NEAR(h[20], 100, 2);
    for (auto i : {3u, 7u, 11u, 15u})
        EXPECT_NEAR(h[i], 25, 2);
}

TEST(SubBlockArb, ClrgRestoresFlatLrgFairness)
{
    // Paper Fig 5: with CLRG every requesting input gets 1/5.
    ClrgSubArbiter sub(4, 64, 2);
    PaperExample ex(sub);
    auto h = winHistogram(ex, 500);
    for (auto i : {3u, 7u, 11u, 15u, 20u})
        EXPECT_NEAR(h[i], 100, 3) << "input " << i;
}

TEST(SubBlockArb, ClrgSteadyStateRotation)
{
    // After the initial transient, each window of 5 grants contains
    // each of the five inputs exactly once (flat-LRG pattern).
    ClrgSubArbiter sub(4, 64, 2);
    PaperExample ex(sub);
    for (int i = 0; i < 25; ++i)
        ex.cycle();
    for (int w = 0; w < 10; ++w) {
        std::map<std::uint32_t, int> h;
        for (int i = 0; i < 5; ++i)
            ++h[ex.cycle()];
        for (auto i : {3u, 7u, 11u, 15u, 20u})
            EXPECT_EQ(h[i], 1) << "window " << w;
    }
}

TEST(SubBlockArb, LayerLrgPaperExampleStepByStep)
{
    // Section III-B2 cycle-by-cycle: with plain L-2-L LRG the two
    // channel ports simply alternate, so the lone input 20 wins every
    // other cycle while {3,7,11,15} rotate through the off cycles.
    LrgSubArbiter sub(4);
    PaperExample ex(sub);
    const std::uint32_t expected[10] = {3,  20, 7, 20, 11,
                                        20, 15, 20, 3, 20};
    for (int t = 0; t < 10; ++t)
        ASSERT_EQ(ex.cycle(), expected[t]) << "cycle " << t + 1;
}

TEST(SubBlockArb, ClrgPaperExampleStepByStep)
{
    // Section III-B4 walk-through of the same adversarial pattern,
    // grant by grant. Once input 20 has used its class-0 credit
    // (cycle 2), the class compare inhibits it until every L1 input
    // has been served too; the usage counters then saturate and the
    // whole bank halves at cycle 11.
    ClrgSubArbiter sub(4, 64, 2);
    PaperExample ex(sub);

    const std::uint32_t expected[11] = {3, 20, 7,  11, 15, 20,
                                        3, 7,  11, 15, 20};
    for (int t = 0; t < 11; ++t) {
        ASSERT_EQ(ex.cycle(), expected[t]) << "cycle " << t + 1;
        if (t == 4) {
            // After one full rotation everyone has used one credit.
            for (auto i : {3u, 7u, 11u, 15u, 20u})
                ASSERT_EQ(sub.counters().classOf(i), 1u)
                    << "input " << i;
        }
    }

    // Cycle 11 saturated input 20's counter (2 == maxCount): the
    // whole bank halves (2 -> 1 for everyone) before 20's increment,
    // so the relative usage order survives saturation.
    for (auto i : {3u, 7u, 11u, 15u})
        EXPECT_EQ(sub.counters().classOf(i), 1u) << "input " << i;
    EXPECT_EQ(sub.counters().classOf(20), 2u);
}

TEST(SubBlockArb, WlrgAlsoResolvesPaperExample)
{
    WlrgSubArbiter sub(4);
    PaperExample ex(sub);
    auto h = winHistogram(ex, 500);
    for (auto i : {3u, 7u, 11u, 15u, 20u})
        EXPECT_NEAR(h[i], 100, 10) << "input " << i;
}

TEST(SubBlockArb, NoValidRequestsGrantsNone)
{
    LrgSubArbiter lrg(4);
    WlrgSubArbiter wlrg(4);
    ClrgSubArbiter clrg(4, 64, 2);
    std::vector<SubBlockRequest> none(4);
    EXPECT_EQ(lrg.arbitrate(none), SubBlockArbiter::kNone);
    EXPECT_EQ(wlrg.arbitrate(none), SubBlockArbiter::kNone);
    EXPECT_EQ(clrg.arbitrate(none), SubBlockArbiter::kNone);
}

TEST(SubBlockArb, ClrgPrefersLowerClassRegardlessOfLrg)
{
    ClrgSubArbiter sub(2, 8, 2);
    std::vector<SubBlockRequest> reqs(2);
    reqs[0] = {true, 0, 1};
    reqs[1] = {true, 1, 1};
    // Tie in class 0: LRG decides, port 0 initially outranks port 1.
    EXPECT_EQ(sub.arbitrate(reqs), 0u);
    // Now input 0 is class 1, input 1 class 0 -> class decides.
    EXPECT_EQ(sub.arbitrate(reqs), 1u);
    EXPECT_EQ(sub.counters().classOf(0), 1u);
    EXPECT_EQ(sub.counters().classOf(1), 1u);
}

TEST(SubBlockArb, FactoryMakesMatchingSchemes)
{
    EXPECT_NE(dynamic_cast<LrgSubArbiter *>(
                  makeSubBlockArbiter(ArbScheme::LayerLrg, 4, 64, 2)
                      .get()),
              nullptr);
    EXPECT_NE(dynamic_cast<WlrgSubArbiter *>(
                  makeSubBlockArbiter(ArbScheme::Wlrg, 4, 64, 2).get()),
              nullptr);
    EXPECT_NE(dynamic_cast<ClrgSubArbiter *>(
                  makeSubBlockArbiter(ArbScheme::Clrg, 4, 64, 2).get()),
              nullptr);
}

TEST(SubBlockArb, FilledListEntryMatchesDenseArbitrate)
{
    // Twin instances of each scheme: one arbitrates the dense request
    // vector, the other only the valid ports, listed in shuffled
    // order. Request sets include empty and all-valid ones and random
    // WLRG weights; winners and saved state must agree after every
    // call.
    const ArbScheme schemes[] = {ArbScheme::LayerLrg, ArbScheme::Wlrg,
                                 ArbScheme::Clrg};
    Rng rng(41);
    for (std::uint32_t ports : {1u, 4u, 7u, 13u, 64u, 65u}) {
        for (ArbScheme scheme : schemes) {
            SCOPED_TRACE(std::string(toString(scheme)) + " ports " +
                         std::to_string(ports));
            auto dense = makeSubBlockArbiter(scheme, ports, 32, 2);
            auto sparse = makeSubBlockArbiter(scheme, ports, 32, 2);
            std::vector<SubBlockRequest> reqs(ports);
            std::vector<std::uint32_t> filled;
            for (int t = 0; t < 1500; ++t) {
                const double density =
                    t % 50 == 0    ? 0.0
                    : t % 50 == 25 ? 1.0
                                   : 0.1 + 0.2 * double(rng.below(4));
                filled.clear();
                for (std::uint32_t p = 0; p < ports; ++p) {
                    reqs[p].valid = rng.bernoulli(density);
                    reqs[p].primaryInput =
                        static_cast<std::uint32_t>(rng.below(32));
                    reqs[p].weight =
                        1 + static_cast<std::uint32_t>(rng.below(5));
                    if (reqs[p].valid)
                        filled.push_back(p);
                }
                for (std::size_t j = filled.size(); j > 1; --j)
                    std::swap(filled[j - 1], filled[rng.below(j)]);

                const std::uint32_t want = dense->arbitrate(reqs);
                ASSERT_EQ(sparse->arbitrateFilled(reqs, filled), want)
                    << "call " << t;
                if (filled.empty()) {
                    ASSERT_EQ(want, SubBlockArbiter::kNone);
                }
                snap::Writer wd, ws;
                dense->save(wd);
                sparse->save(ws);
                ASSERT_EQ(wd.buffer(), ws.buffer()) << "call " << t;
            }
        }
    }
}

// ---------------------------------------------------------------------
// CrossbarScheduler strategies (iSLIP / PIM / wavefront)
// ---------------------------------------------------------------------

namespace {

constexpr std::uint32_t kNoWin = CrossbarScheduler::kNone;

/** Request-matrix harness for direct scheduler match() calls: builds
 *  the (contended, want, winner) triple the fabric's collect pass
 *  would produce, including multi-request columns the degree-1 fabric
 *  path can't express. */
struct SchedRig
{
    explicit SchedRig(std::uint32_t n)
        : n(n), contended(n), want(n, BitVec(n)), winner(n, kNoWin)
    {}

    void
    clear()
    {
        contended.clear();
        for (auto &w : want)
            w.clear();
        std::fill(winner.begin(), winner.end(), kNoWin);
    }

    void
    request(std::uint32_t input, std::uint32_t output)
    {
        contended.set(output);
        want[output].set(input);
    }

    const std::vector<std::uint32_t> &
    run(ColumnScheduler &s)
    {
        s.match(contended, want, winner);
        return winner;
    }

    std::uint32_t
    matches() const
    {
        std::uint32_t m = 0;
        for (std::uint32_t o = 0; o < n; ++o)
            m += contended[o] && winner[o] != kNoWin;
        return m;
    }

    std::uint32_t n;
    BitVec contended;
    std::vector<BitVec> want;
    std::vector<std::uint32_t> winner;
};

} // namespace

/** Hand-computed 4x4 iSLIP trace (2 iterations). Requests: inputs 0
 *  and 1 both want outputs 0 and 1; input 2 wants output 1 only. All
 *  pointers start at 0.
 *
 *  Iteration 1: output 0 grants input 0 (first at/after g[0]=0);
 *  output 1 also grants input 0. Input 0 accepts output 0 (circular
 *  distance 0 from a[0]=0 beats distance 1). First-iteration accept
 *  moves g[0] -> 1 and a[0] -> 1.
 *  Iteration 2: output 1's candidates are now {1, 2}; it grants
 *  input 1 (first at/after g[1]=0), which accepts. NOT a first-
 *  iteration accept, so g[1] and a[1] must stay 0. */
TEST(Scheduler, IslipPointerUpdateWorkedExample)
{
    IslipScheduler s(4, 2);
    SchedRig rig(4);
    rig.request(0, 0);
    rig.request(1, 0);
    rig.request(0, 1);
    rig.request(1, 1);
    rig.request(2, 1);
    const auto &w = rig.run(s);

    EXPECT_EQ(w[0], 0u);
    EXPECT_EQ(w[1], 1u);
    // First-iteration match (o0, i0) moved its pointers one past.
    EXPECT_EQ(s.grantPtr(0), 1u);
    EXPECT_EQ(s.acceptPtr(0), 1u);
    // Second-iteration match (o1, i1) must not move pointers.
    EXPECT_EQ(s.grantPtr(1), 0u);
    EXPECT_EQ(s.acceptPtr(1), 0u);
    EXPECT_EQ(s.acceptPtr(2), 0u);
}

/** Single-iteration iSLIP under a persistent all-to-all load: cycle 1
 *  every output grants input 0 and only one match forms, but the
 *  pointer updates desynchronize the outputs so the match count
 *  climbs 1, 2, 3 and then locks at the full 4 — McKeown's 100%
 *  throughput argument, traced by hand:
 *    cycle 1: (o0,i0)                    g=[1,0,0,0] a=[1,0,0,0]
 *    cycle 2: (o0,i1) (o1,i0)           g=[2,1,0,0] a=[2,1,0,0]
 *    cycle 3: (o0,i2) (o1,i1) (o2,i0)   g=[3,2,1,0] a=[3,2,1,0]
 *    cycle 4+: full permutation every cycle. */
TEST(Scheduler, IslipDesynchronizesUnderContention)
{
    constexpr std::uint32_t n = 4;
    IslipScheduler s(n, 1);
    SchedRig rig(n);

    std::vector<std::uint32_t> sizes;
    for (int cycle = 0; cycle < 12; ++cycle) {
        rig.clear();
        for (std::uint32_t i = 0; i < n; ++i)
            for (std::uint32_t o = 0; o < n; ++o)
                rig.request(i, o);
        rig.run(s);
        sizes.push_back(rig.matches());
    }
    std::vector<std::uint32_t> expect{1, 2, 3, 4, 4, 4,
                                      4, 4, 4, 4, 4, 4};
    EXPECT_EQ(sizes, expect);
}

/** PIM round trace: two columns contended by the same two inputs,
 *  two rounds. The exact winners depend on the counter-RNG draws, so
 *  the test replays the documented draw stream — one tick per
 *  granting column (ascending) and one per accepting input
 *  (ascending), fresh tick per draw even for singleton choices — and
 *  checks the scheduler agrees draw for draw. */
TEST(Scheduler, PimRoundTraceWorkedExample)
{
    constexpr std::uint32_t n = 4;
    constexpr std::uint64_t seed = 42;
    PimScheduler s(n, 2, seed);
    SchedRig rig(n);
    rig.request(0, 0);
    rig.request(1, 0);
    rig.request(0, 1);
    rig.request(1, 1);
    const auto &w = rig.run(s);

    const std::uint64_t key = counterKey(seed, 0);
    std::uint64_t tick = 0;
    std::uint32_t expWin[2] = {kNoWin, kNoWin};
    bool matched[2] = {false, false};
    for (int round = 0; round < 2; ++round) {
        // Grant phase, ascending columns. Candidate list for either
        // column is the still-unmatched subset of inputs {0, 1}.
        std::uint32_t grantOf[2] = {kNoWin, kNoWin}; // per column
        for (std::uint32_t o = 0; o < 2; ++o) {
            if (expWin[o] != kNoWin)
                continue;
            std::vector<std::uint32_t> cand;
            for (std::uint32_t i = 0; i < 2; ++i)
                if (!matched[i])
                    cand.push_back(i);
            if (cand.empty())
                continue;
            auto idx = static_cast<std::uint32_t>(counterBelow(
                counterDrawKeyed(key, tick++), cand.size()));
            grantOf[o] = cand[idx];
        }
        // Accept phase, ascending inputs.
        for (std::uint32_t i = 0; i < 2; ++i) {
            std::vector<std::uint32_t> offers;
            for (std::uint32_t o = 0; o < 2; ++o)
                if (grantOf[o] == i)
                    offers.push_back(o);
            if (offers.empty())
                continue;
            auto idx = static_cast<std::uint32_t>(counterBelow(
                counterDrawKeyed(key, tick++), offers.size()));
            expWin[offers[idx]] = i;
            matched[i] = true;
        }
    }

    EXPECT_EQ(w[0], expWin[0]);
    EXPECT_EQ(w[1], expWin[1]);
    EXPECT_EQ(s.tick(), tick); // draw streams stayed aligned
    // Two inputs, two columns, two rounds: always a full match.
    ASSERT_NE(w[0], kNoWin);
    ASSERT_NE(w[1], kNoWin);
    EXPECT_NE(w[0], w[1]);
}

/** PIM replayability: an identically seeded scheduler fed the same
 *  request history reproduces the winner sequence exactly. */
TEST(Scheduler, PimIsReplayable)
{
    constexpr std::uint32_t n = 8;
    PimScheduler a(n, 2, 7), b(n, 2, 7);
    SchedRig ra(n), rb(n);
    for (int cycle = 0; cycle < 32; ++cycle) {
        ra.clear();
        rb.clear();
        for (std::uint32_t i = 0; i < n; ++i) {
            // Arbitrary but fixed multi-request pattern.
            ra.request(i, (i + cycle) % n);
            rb.request(i, (i + cycle) % n);
            ra.request(i, (3 * i + 1) % n);
            rb.request(i, (3 * i + 1) % n);
        }
        EXPECT_EQ(ra.run(a), rb.run(b)) << "cycle " << cycle;
    }
    EXPECT_EQ(a.tick(), b.tick());
}

/** Wavefront allocator: under all-to-all requests each sweep grants
 *  the whole priority diagonal, i.e. the permutation i + o == prio
 *  (mod n), and the diagonal rotates by one every call. */
TEST(Scheduler, WavefrontRotationWorkedExample)
{
    constexpr std::uint32_t n = 4;
    WavefrontScheduler s(n);
    ASSERT_EQ(s.priority(), 0u);

    SchedRig rig(n);
    for (std::uint32_t call = 0; call < 2 * n; ++call) {
        rig.clear();
        for (std::uint32_t i = 0; i < n; ++i)
            for (std::uint32_t o = 0; o < n; ++o)
                rig.request(i, o);
        const auto &w = rig.run(s);
        std::uint32_t diag = call % n;
        for (std::uint32_t o = 0; o < n; ++o)
            EXPECT_EQ(w[o], (diag + n - o) % n)
                << "call " << call << " output " << o;
        EXPECT_EQ(s.priority(), (call + 1) % n);
    }
}

/** The wavefront priority rotates on every match() call, including
 *  calls where every request lost to a busy output (empty contended
 *  set) — that is what keeps it aligned with the request-gated call
 *  sites across stepping modes. */
TEST(Scheduler, WavefrontRotatesOnEmptyContendedCall)
{
    WavefrontScheduler s(4);
    SchedRig rig(4);
    rig.run(s); // no contended outputs at all
    EXPECT_EQ(s.priority(), 1u);
}
