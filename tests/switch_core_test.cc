/**
 * @file
 * Tests for fabric::SwitchCore, the connection-held protocol every
 * engine steps through: a request-free cycle is accounted, not
 * arbitrated; the grant cycle carries no flit; release and a forced
 * break free the output and re-wake an input only while it has work.
 * A small counting fabric records which fabric entry points the core
 * calls. A randomized referee steps an engine that parks its blocked
 * inputs against the same engine on the dense reference path.
 */

#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "fabric/switch_core.hh"

using namespace hirise;
using fabric::kNoRequest;
using fabric::SwitchCore;

namespace {

SwitchSpec
flatSpec(std::uint32_t radix)
{
    SwitchSpec s;
    s.topo = Topology::Flat2D;
    s.radix = radix;
    s.arb = ArbScheme::Lrg;
    return s;
}

/** Grants each requested free output to its lowest requesting input
 *  and counts every call the core makes. */
class CountingFabric : public fabric::Fabric
{
  public:
    explicit CountingFabric(std::uint32_t radix)
        : Fabric(flatSpec(radix)), holder_(radix, kNoRequest)
    {}

    const BitVec &
    arbitrate(std::span<const std::uint32_t> req) override
    {
        ++arbitrateCalls;
        return grantLowest(req);
    }

    const BitVec &
    arbitrateActive(std::span<const std::uint32_t> req,
                    std::span<const std::uint32_t> active) override
    {
        ++activeCalls;
        lastActive.assign(active.begin(), active.end());
        return grantLowest(req);
    }

    void
    release(std::uint32_t input, std::uint32_t output) override
    {
        ++releases;
        EXPECT_EQ(holder_[output], input);
        holder_[output] = kNoRequest;
    }

    void advanceIdle(std::uint64_t cycles) override { idle += cycles; }

    bool
    outputBusy(std::uint32_t output) const override
    {
        return holder_[output] != kNoRequest;
    }

    std::uint32_t
    outputHolder(std::uint32_t output) const override
    {
        return holder_[output];
    }

    /** Tear @p output 's connection down on the fabric side, as a
     *  channel failure does. */
    fabric::BrokenConn
    breakOutput(std::uint32_t output)
    {
        fabric::BrokenConn bc{holder_[output], output};
        holder_[output] = kNoRequest;
        return bc;
    }

    std::uint64_t arbitrateCalls = 0;
    std::uint64_t activeCalls = 0;
    std::uint64_t releases = 0;
    std::uint64_t idle = 0;
    std::vector<std::uint32_t> lastActive;

  private:
    const BitVec &
    grantLowest(std::span<const std::uint32_t> req)
    {
        grant_.clear();
        for (std::uint32_t i = 0; i < req.size(); ++i) {
            if (req[i] != kNoRequest && holder_[req[i]] == kNoRequest) {
                holder_[req[i]] = i;
                grant_.set(i);
            }
        }
        return grant_;
    }

    std::vector<std::uint32_t> holder_;
};

struct Rig
{
    Rig() : core(std::make_unique<CountingFabric>(8))
    {
        fab = static_cast<CountingFabric *>(&core.fabric());
    }

    /** One cycle in which input i requests want[i] (kNoRequest: no
     *  request); returns the inputs that moved a flit. */
    std::vector<std::uint32_t>
    cycle(const std::vector<std::uint32_t> &want)
    {
        core.arbitrate([&](std::uint32_t i) { return want[i]; },
                       [&](std::uint32_t i, std::uint32_t out) {
                           grants.push_back({i, out});
                       });
        std::vector<std::uint32_t> moved;
        core.transfer([&](std::uint32_t i) { moved.push_back(i); });
        return moved;
    }

    SwitchCore core;
    CountingFabric *fab;
    std::vector<fabric::BrokenConn> grants;
};

const std::vector<std::uint32_t> kNone(8, kNoRequest);

} // namespace

TEST(SwitchCore, RequestFreeCycleIsAccountedNotArbitrated)
{
    Rig r;
    r.cycle(kNone); // nobody waits
    EXPECT_EQ(r.fab->idle, 1u);

    // Waiting inputs whose picks decline are request-free too.
    r.core.wake(3);
    r.core.wake(5);
    r.cycle(kNone);
    EXPECT_EQ(r.fab->idle, 2u);
    EXPECT_EQ(r.fab->arbitrateCalls, 0u);
    EXPECT_EQ(r.fab->activeCalls, 0u);
    EXPECT_TRUE(r.core.waiting(3));
    EXPECT_TRUE(r.core.waiting(5));

    r.core.skipIdleCycles(10);
    EXPECT_EQ(r.fab->idle, 12u);
    EXPECT_EQ(r.fab->arbitrateCalls + r.fab->activeCalls, 0u);
}

TEST(SwitchCore, OnlyWaitingInputsRequestInAscendingOrder)
{
    Rig r;
    for (std::uint32_t i : {6u, 1u, 4u})
        r.core.wake(i);
    std::vector<std::uint32_t> want = kNone;
    want[0] = 0; // not waiting: never asked
    want[1] = 2;
    want[4] = 3;
    want[6] = 2; // loses output 2 to input 1
    r.cycle(want);
    EXPECT_EQ(r.fab->activeCalls, 1u);
    EXPECT_EQ(r.fab->lastActive, (std::vector<std::uint32_t>{1, 4, 6}));
    ASSERT_EQ(r.grants.size(), 2u);
    EXPECT_EQ(r.grants[0].input, 1u);
    EXPECT_EQ(r.grants[1].input, 4u);
    EXPECT_FALSE(r.core.connected(6));
    EXPECT_TRUE(r.core.waiting(6)); // retries next cycle
}

TEST(SwitchCore, GrantCycleCarriesNoFlit)
{
    Rig r;
    r.core.wake(2);
    std::vector<std::uint32_t> want = kNone;
    want[2] = 5;
    EXPECT_TRUE(r.cycle(want).empty()); // grant cycle
    EXPECT_TRUE(r.core.connected(2));
    EXPECT_FALSE(r.core.waiting(2));
    EXPECT_EQ(r.core.heldOutput(2), 5u);
    EXPECT_FALSE(r.core.outputFree(5));

    // Data moves from the next cycle on; a connected input does not
    // request, so that cycle is request-free.
    EXPECT_EQ(r.cycle(want), (std::vector<std::uint32_t>{2}));
    EXPECT_EQ(r.cycle(want), (std::vector<std::uint32_t>{2}));
    EXPECT_EQ(r.fab->activeCalls, 1u);
    EXPECT_EQ(r.fab->idle, 2u);
}

TEST(SwitchCore, ReleaseFreesOutputAndRewakesInputWithWork)
{
    Rig r;
    r.core.wake(2);
    r.core.wake(3);
    std::vector<std::uint32_t> want = kNone;
    want[2] = 5;
    want[3] = 6;
    r.cycle(want);

    r.core.wake(2); // new work while connected: no request yet
    EXPECT_FALSE(r.core.waiting(2));

    r.core.release(2, true);
    EXPECT_EQ(r.fab->releases, 1u);
    EXPECT_TRUE(r.core.outputFree(5));
    EXPECT_FALSE(r.fab->outputBusy(5));
    EXPECT_FALSE(r.core.connected(2));
    EXPECT_TRUE(r.core.waiting(2));

    r.core.release(3, false);
    EXPECT_TRUE(r.core.outputFree(6));
    EXPECT_FALSE(r.core.connected(3));
    EXPECT_FALSE(r.core.waiting(3));
    EXPECT_FALSE(r.core.quiescent()); // input 2 still waits
}

TEST(SwitchCore, ForcedBreakFreesOutputWithoutRelease)
{
    Rig r;
    r.core.wake(1);
    r.core.wake(4);
    std::vector<std::uint32_t> want = kNone;
    want[1] = 0;
    want[4] = 7;
    r.cycle(want);

    r.core.dropBroken(r.fab->breakOutput(0), true);
    EXPECT_TRUE(r.core.outputFree(0));
    EXPECT_FALSE(r.core.connected(1));
    EXPECT_TRUE(r.core.waiting(1));

    r.core.dropBroken(r.fab->breakOutput(7), false);
    EXPECT_TRUE(r.core.outputFree(7));
    EXPECT_FALSE(r.core.connected(4));
    EXPECT_FALSE(r.core.waiting(4));
    EXPECT_EQ(r.fab->releases, 0u); // the fabric already tore them down

    // The broken connections move no flit.
    EXPECT_TRUE(r.cycle(kNone).empty());
}

TEST(SwitchCore, DenseArbitrationOffersEveryUnconnectedInput)
{
    Rig r;
    std::vector<std::uint32_t> want = kNone;
    want[0] = 3; // never woken: the dense path still asks
    r.core.arbitrateDense([&](std::uint32_t i) { return want[i]; },
                          [](std::uint32_t, std::uint32_t) {});
    EXPECT_EQ(r.fab->arbitrateCalls, 1u);
    EXPECT_TRUE(r.core.connected(0));

    // Request-free cycles still call the fabric in the dense form.
    r.core.transfer([](std::uint32_t) {});
    r.core.arbitrateDense([](std::uint32_t) { return kNoRequest; },
                          [](std::uint32_t, std::uint32_t) {});
    EXPECT_EQ(r.fab->arbitrateCalls, 2u);
    EXPECT_EQ(r.fab->idle, 0u);
}

// ---------------------------------------------------------------------
// Parking referee
// ---------------------------------------------------------------------

namespace {

/** A closed-loop engine whose pick depends only on its head packet's
 *  candidate outputs, their credit flags and the free-output set: the
 *  first candidate that is free and has credit, else it parks on every
 *  candidate. Stepped either through arbitrate() with parking or
 *  through the dense reference. */
class ParkingEngine
{
  public:
    struct Pkt
    {
        std::vector<std::uint32_t> cand; //!< candidate outputs, in order
        std::uint32_t len;               //!< flits
    };

    ParkingEngine(std::uint32_t n, bool dense)
        : dense_(dense), core_(fabric::makeFabric(flatSpec(n))),
          queue_(n), flitsLeft_(n, 0), credit_(n, true)
    {}

    /** A packet arrives at input @p i. */
    void
    arrive(std::uint32_t i, const Pkt &p)
    {
        queue_[i].push_back(p);
        if (queue_[i].size() == 1)
            core_.wake(i); // a new head
    }

    /** Flip output @p o 's credit; a returned credit re-arms the
     *  inputs parked on it. */
    void
    setCredit(std::uint32_t o, bool on)
    {
        const bool returned = on && !credit_[o];
        credit_[o] = on;
        if (returned)
            core_.wakeOutput(o);
    }

    /** Calls that change nothing a pick reads: always harmless. */
    void
    spuriousWake(std::uint32_t i)
    {
        if (!queue_[i].empty())
            core_.wake(i);
    }
    void spuriousWakeOutput(std::uint32_t o) { core_.wakeOutput(o); }

    /** One cycle; appends (input, output) per grant to @p log. */
    void
    cycle(std::vector<std::pair<std::uint32_t, std::uint32_t>> &log)
    {
        auto pick = [&](std::uint32_t i) {
            if (queue_[i].empty())
                return kNoRequest; // the dense path asks idle inputs
            const Pkt &head = queue_[i].front();
            for (std::uint32_t o : head.cand)
                if (credit_[o] && core_.outputFree(o))
                    return o;
            for (std::uint32_t o : head.cand)
                core_.parkOn(i, o);
            return kNoRequest;
        };
        auto grant = [&](std::uint32_t i, std::uint32_t o) {
            log.emplace_back(i, o);
            flitsLeft_[i] = queue_[i].front().len;
            queue_[i].pop_front();
        };
        if (dense_)
            core_.arbitrateDense(pick, grant);
        else
            core_.arbitrate(pick, grant);
        core_.transfer([&](std::uint32_t i) {
            if (--flitsLeft_[i] == 0)
                core_.release(i, !queue_[i].empty());
        });
    }

    const SwitchCore &core() const { return core_; }

  private:
    bool dense_;
    SwitchCore core_;
    std::vector<std::deque<Pkt>> queue_;
    std::vector<std::uint32_t> flitsLeft_;
    std::vector<bool> credit_;
};

/** Grant sequences of the parking and the dense engine under one
 *  random schedule of arrivals, credit flips and spurious wakes. */
void
runParkingReferee(std::uint32_t n, std::uint64_t seed,
                  std::uint32_t cycles)
{
    ParkingEngine park(n, false), dense(n, true);
    Rng rng(seed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> a, b;
    std::uint64_t parked_cycles = 0;
    for (std::uint32_t t = 0; t < cycles; ++t) {
        for (std::uint32_t i = 0; i < n; ++i) {
            if (rng.bernoulli(0.08)) {
                ParkingEngine::Pkt p;
                const auto k = 1 + rng.below(3);
                for (std::uint64_t c = 0; c < k; ++c)
                    p.cand.push_back(
                        static_cast<std::uint32_t>(rng.below(n)));
                p.len = 1 + static_cast<std::uint32_t>(rng.below(6));
                park.arrive(i, p);
                dense.arrive(i, p);
            }
            if (rng.bernoulli(0.01)) {
                park.spuriousWake(i);
                dense.spuriousWake(i);
            }
        }
        for (std::uint32_t o = 0; o < n; ++o) {
            if (rng.bernoulli(0.05)) {
                const bool on = rng.bernoulli(0.6);
                park.setCredit(o, on);
                dense.setCredit(o, on);
            }
            if (rng.bernoulli(0.01)) {
                park.spuriousWakeOutput(o);
                dense.spuriousWakeOutput(o);
            }
        }
        park.cycle(a);
        dense.cycle(b);
        ASSERT_EQ(a, b) << "grant sequences diverge in cycle " << t;
        for (std::uint32_t i = 0; i < n; ++i)
            parked_cycles += park.core().parked(i);
    }
    // The schedule must actually park inputs, or the test shows
    // nothing.
    EXPECT_GT(parked_cycles, std::uint64_t(cycles));
    EXPECT_GT(a.size(), std::size_t(cycles) / 4);
}

} // namespace

TEST(SwitchCore, ParkedInputsGrantAsTheDenseReference)
{
    runParkingReferee(16, 101, 12000);
}

TEST(SwitchCore, ParkedInputsGrantAsTheDenseReferenceMultiWord)
{
    // 70 inputs: the parking rows span two words.
    runParkingReferee(70, 202, 10000);
}

TEST(SwitchCore, ParkedInputLeavesWaitingUntilReArmed)
{
    Rig r;
    r.core.wake(1);
    r.core.wake(2);
    std::vector<std::uint32_t> want = kNone;
    want[1] = 4;
    r.cycle(want); // 1 holds output 4
    ASSERT_TRUE(r.core.connected(1));

    // 2 wants only output 4: its pick fails and parks there.
    auto pick2 = [&](std::uint32_t i) {
        if (r.core.outputFree(4))
            return 4u;
        r.core.parkOn(i, 4);
        return kNoRequest;
    };
    auto none = [](std::uint32_t, std::uint32_t) {};
    r.core.arbitrate(pick2, none);
    EXPECT_TRUE(r.core.parked(2));
    EXPECT_FALSE(r.core.waiting(2));
    EXPECT_FALSE(r.core.quiescent());

    // A change on another output does not re-arm it ...
    r.core.wakeOutput(5);
    EXPECT_TRUE(r.core.parked(2));
    // ... freeing its output does.
    r.core.release(1, false);
    EXPECT_FALSE(r.core.parked(2));
    EXPECT_TRUE(r.core.waiting(2));

    // Re-park, then re-arm through wakeOutput and through wake.
    want[2] = 4;
    r.cycle(want); // 1 is idle; 2 takes output 4
    ASSERT_TRUE(r.core.connected(2));
    r.core.wake(1);
    want[1] = kNoRequest;
    auto pick1 = [&](std::uint32_t i) {
        r.core.parkOn(i, 4);
        r.core.parkOn(i, 6);
        return kNoRequest;
    };
    r.core.arbitrate(pick1, none);
    EXPECT_TRUE(r.core.parked(1));
    r.core.wakeOutput(6);
    EXPECT_TRUE(r.core.waiting(1));
    r.core.arbitrate(pick1, none);
    EXPECT_TRUE(r.core.parked(1));
    r.core.wake(1);
    EXPECT_TRUE(r.core.waiting(1));
    EXPECT_FALSE(r.core.parked(1));
}
