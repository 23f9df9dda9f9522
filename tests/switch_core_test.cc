/**
 * @file
 * Tests for fabric::SwitchCore, the connection-held protocol every
 * engine steps through: a request-free cycle is accounted, not
 * arbitrated; the grant cycle carries no flit; release and a forced
 * break free the output and re-wake an input only while it has work.
 * A small counting fabric records which fabric entry points the core
 * calls.
 */

#include <gtest/gtest.h>

#include <vector>

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
