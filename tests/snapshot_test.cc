/**
 * @file
 * Checkpoint/restore: a run interrupted at an arbitrary cycle,
 * snapshotted to a versioned binary file, restored into a freshly
 * constructed simulator, and run to completion must be bit-identical
 * to the uninterrupted run — in dense and event-driven stepping
 * modes, with and without an active fault schedule, and at
 * snapshot points inside warmup, inside the measurement window, and
 * mid-fault-sequence. Cross-configuration restores are rejected via
 * the embedded config key.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/fault.hh"
#include "sim/network_sim.hh"
#include "traffic/pattern.hh"

using namespace hirise;
using traffic::TrafficPattern;

namespace {

SwitchSpec
hiriseSpec(std::uint32_t radix = 64)
{
    SwitchSpec s;
    s.topo = Topology::HiRise;
    s.radix = radix;
    s.layers = 4;
    s.channels = 4;
    s.arb = ArbScheme::Clrg;
    return s;
}

sim::SimConfig
cfgAt(double rate, bool dense)
{
    sim::SimConfig cfg;
    cfg.injectionRate = rate;
    cfg.warmupCycles = 150;
    cfg.measureCycles = 600;
    cfg.seed = 42;
    cfg.denseStepping = dense;
    return cfg;
}

sim::FaultSchedule
faultySchedule()
{
    sim::FaultSchedule sched;
    sched.events.push_back(
        {180, sim::FaultEvent::Kind::FailChannel, 0, 1, 0});
    sched.events.push_back(
        {420, sim::FaultEvent::Kind::RecoverChannel, 0, 1, 0});
    sched.events.push_back(
        {300, sim::FaultEvent::Kind::FailLayer, 2, 0, 0});
    sched.events.push_back(
        {520, sim::FaultEvent::Kind::RecoverLayer, 2, 0, 0});
    sched.flaky.push_back({1, 3, 0, 0.3});
    sched.maxErrorsPerWindow = 1;
    sched.windowCycles = 32;
    sched.recoveryCycles = 48;
    return sched;
}

/** Unique temp path per test instantiation (gtest runs serially). */
std::string
tmpPath(const std::string &tag)
{
    return testing::TempDir() + "hirise_snap_" + tag + ".bin";
}

void
expectSame(const sim::SimResult &a, const sim::SimResult &b)
{
    EXPECT_EQ(a.offeredFlitsPerCycle, b.offeredFlitsPerCycle);
    EXPECT_EQ(a.acceptedFlitsPerCycle, b.acceptedFlitsPerCycle);
    EXPECT_EQ(a.avgLatencyCycles, b.avgLatencyCycles);
    EXPECT_EQ(a.p99LatencyCycles, b.p99LatencyCycles);
    EXPECT_EQ(a.avgQueueingCycles, b.avgQueueingCycles);
    EXPECT_EQ(a.packetsDelivered, b.packetsDelivered);
    EXPECT_EQ(a.inFlightAtMeasureEnd, b.inFlightAtMeasureEnd);
    EXPECT_EQ(a.latencyOverflowPackets, b.latencyOverflowPackets);
    EXPECT_EQ(a.packetsDropped, b.packetsDropped);
    EXPECT_EQ(a.fairness, b.fairness);
    EXPECT_EQ(a.perInputLatency, b.perInputLatency);
    EXPECT_EQ(a.perInputThroughput, b.perInputThroughput);
}

/** Uninterrupted run vs snapshot-at-cut / restore / finish. */
void
roundTripScalar(double rate, bool dense, bool faults,
                net::Cycle cut, const std::string &tag)
{
    SCOPED_TRACE(tag + " cut@" + std::to_string(cut));
    auto mk = [&] {
        auto s = std::make_unique<sim::NetworkSim>(
            hiriseSpec(), cfgAt(rate, dense),
            std::make_shared<traffic::UniformRandom>(64));
        if (faults)
            s->setFaultSchedule(faultySchedule());
        return s;
    };

    auto whole = mk();
    auto expect = whole->run();

    std::string path = tmpPath(tag);
    auto first = mk();
    first->advanceTo(cut);
    ASSERT_TRUE(first->saveSnapshotFile(path));

    auto second = mk();
    ASSERT_TRUE(second->loadSnapshotFile(path));
    EXPECT_EQ(second->now(), cut);
    auto got = second->run();

    expectSame(expect, got);
    EXPECT_EQ(whole->totalDroppedPackets(),
              second->totalDroppedPackets());
    EXPECT_EQ(whole->backlogFlits(), second->backlogFlits());
    if (faults) {
        EXPECT_EQ(whole->faultManager().totalLinkErrors(),
                  second->faultManager().totalLinkErrors());
        EXPECT_EQ(whole->faultManager().totalIsolations(),
                  second->faultManager().totalIsolations());
        EXPECT_EQ(whole->faultManager().totalUnisolations(),
                  second->faultManager().totalUnisolations());
    }
    std::remove(path.c_str());
}

} // namespace

TEST(Snapshot, ScalarEventModeRoundTripIsBitIdentical)
{
    // Cuts inside warmup, right before a fault event, mid-measure,
    // and on the last cycle.
    for (net::Cycle cut : {60u, 179u, 400u, 749u}) {
        roundTripScalar(0.4, false, true, cut, "ev_faults");
        roundTripScalar(0.4, false, false, cut, "ev_plain");
    }
}

TEST(Snapshot, ScalarDenseModeRoundTripIsBitIdentical)
{
    for (net::Cycle cut : {60u, 179u, 400u, 749u}) {
        roundTripScalar(0.4, true, true, cut, "de_faults");
        roundTripScalar(0.4, true, false, cut, "de_plain");
    }
}

TEST(Snapshot, LowLoadFastForwardRoundTrip)
{
    // Event-core fast-forward active: the injection heap is derived
    // state and must be rebuilt (not serialized) on load.
    roundTripScalar(0.02, false, true, 200, "ff_faults");
    roundTripScalar(0.02, false, false, 333, "ff_plain");
}

TEST(Snapshot, SaturationFastPathRoundTrip)
{
    // load >= 1 takes the virtual-source-queue path; its accounting
    // state must survive the round trip too.
    roundTripScalar(1.0, false, true, 400, "sat_faults");
}

TEST(Snapshot, RejectsConfigMismatch)
{
    std::string path = tmpPath("mismatch");
    sim::NetworkSim a(hiriseSpec(), cfgAt(0.4, false),
                      std::make_shared<traffic::UniformRandom>(64));
    a.advanceTo(100);
    ASSERT_TRUE(a.saveSnapshotFile(path));

    // Different seed.
    sim::SimConfig other = cfgAt(0.4, false);
    other.seed = 43;
    sim::NetworkSim b(hiriseSpec(), other,
                      std::make_shared<traffic::UniformRandom>(64));
    EXPECT_FALSE(b.loadSnapshotFile(path));
    EXPECT_EQ(b.now(), 0u); // untouched on failed load

    // Different pattern.
    sim::NetworkSim c(hiriseSpec(), cfgAt(0.4, false),
                      std::make_shared<traffic::Transpose>(64));
    EXPECT_FALSE(c.loadSnapshotFile(path));

    // Different fault schedule.
    sim::NetworkSim d(hiriseSpec(), cfgAt(0.4, false),
                      std::make_shared<traffic::UniformRandom>(64));
    d.setFaultSchedule(faultySchedule());
    EXPECT_FALSE(d.loadSnapshotFile(path));

    // Same config restores fine.
    sim::NetworkSim e(hiriseSpec(), cfgAt(0.4, false),
                      std::make_shared<traffic::UniformRandom>(64));
    EXPECT_TRUE(e.loadSnapshotFile(path));
    EXPECT_EQ(e.now(), 100u);
    std::remove(path.c_str());
}

TEST(Snapshot, RejectsCorruptedFile)
{
    std::string path = tmpPath("corrupt");
    sim::NetworkSim a(hiriseSpec(), cfgAt(0.4, false),
                      std::make_shared<traffic::UniformRandom>(64));
    a.advanceTo(50);
    ASSERT_TRUE(a.saveSnapshotFile(path));

    // Flip one byte past the header: the checksum must catch it.
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
        int ch = std::fgetc(f);
        ASSERT_NE(ch, EOF);
        ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
        std::fputc(ch ^ 0xff, f);
        std::fclose(f);
    }
    sim::NetworkSim b(hiriseSpec(), cfgAt(0.4, false),
                      std::make_shared<traffic::UniformRandom>(64));
    EXPECT_FALSE(b.loadSnapshotFile(path));
    EXPECT_EQ(b.now(), 0u);
    std::remove(path.c_str());

    EXPECT_FALSE(b.loadSnapshotFile(tmpPath("never_written")));
}
