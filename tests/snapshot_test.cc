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

#include "common/hash.hh"
#include "common/snapshot.hh"
#include "net/input_port.hh"
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

template <typename T>
std::uint64_t
saveDigest(const T &obj)
{
    snap::Writer w;
    obj.save(w);
    Fnv1a h;
    h.bytes(w.buffer().data(), w.buffer().size());
    return h.value();
}

template <typename T>
void
copyState(const T &from, T &to)
{
    snap::Writer w;
    from.save(w);
    snap::Reader r(w.buffer());
    to.load(r);
    ASSERT_TRUE(r.done());
}

net::Packet
makePacket(net::PacketId id, std::uint32_t dst, net::Cycle gen)
{
    net::Packet p;
    p.id = id;
    p.src = 3;
    p.dst = dst;
    p.lenFlits = 4;
    p.genCycle = gen;
    return p;
}

/** Both ports advance identically: a fill, and a flit sent when a
 *  connection is up (a new one is made when none is). */
void
stepPorts(net::InputPort &a, net::InputPort &b)
{
    for (net::InputPort *p : {&a, &b}) {
        p->fillCycle();
        if (!p->connected()) {
            const std::uint32_t v = p->pickCandidateVc();
            if (v != net::InputPort::kNoVc)
                p->connect(v, p->vcDest(v));
        }
        if (p->connected() && !p->vcs()[p->connVc()].empty())
            p->sendFlit();
    }
}

} // namespace

// Digests of the snapshot payload (format version 1) recorded when
// VCs still stored flits. The on-disk layout is a compatibility
// contract: the daemon resumes snapshots written by older builds.
TEST(Snapshot, PinnedPayloadDigests)
{
    auto mk = [](double rate) {
        return std::make_unique<sim::NetworkSim>(
            hiriseSpec(), cfgAt(rate, false),
            std::make_shared<traffic::UniformRandom>(64));
    };
    struct Case
    {
        double rate;
        std::uint64_t digest;
    };
    // Mid-run at load 0.5, and at saturation (virtual source queues).
    for (const Case &c : {Case{0.5, 0x7886135a69d0e4aeull},
                         Case{1.0, 0x88dd4188ed8e3ca9ull}}) {
        SCOPED_TRACE(c.rate);
        auto sim = mk(c.rate);
        sim->advanceTo(400);
        EXPECT_EQ(saveDigest(*sim), c.digest);

        // A restored sim re-serializes to the same bytes, and keeps
        // doing so as both runs go on.
        auto restored = mk(c.rate);
        copyState(*sim, *restored);
        EXPECT_EQ(saveDigest(*restored), c.digest);
        for (int k = 0; k < 3; ++k) {
            sim->advanceTo(sim->now() + 7);
            restored->advanceTo(restored->now() + 7);
            EXPECT_EQ(saveDigest(*restored), saveDigest(*sim));
        }
    }
}

TEST(Snapshot, InputPortRoundTripKeepsEveryVcState)
{
    // VC 0: connected, two of four flits sent (mid-packet).
    // VC 1: a whole packet waiting (tail queued).
    // VC 2: only the head buffered, the rest still streaming in.
    net::InputPort port(4, 4);
    port.sourceQueue().push_back(makePacket(10, 5, 100));
    port.sourceQueue().push_back(makePacket(11, 6, 101));
    port.sourceQueue().push_back(makePacket(12, 7, 102));
    for (int i = 0; i < 9; ++i)
        port.fillCycle();
    ASSERT_EQ(port.pickCandidateVc(), 0u);
    port.connect(0, 5);
    port.sendFlit();
    port.sendFlit();
    EXPECT_EQ(saveDigest(port), 0x1d27ced91a29503eull);

    net::InputPort back(4, 4);
    copyState(port, back);
    EXPECT_EQ(saveDigest(back), saveDigest(port));
    EXPECT_EQ(back.backlogFlits(), port.backlogFlits());
    EXPECT_EQ(back.connVc(), 0u);
    EXPECT_EQ(back.flitsLeft(), 2u);
    EXPECT_EQ(back.fillProgress(), 1u);
    for (int k = 0; k < 12; ++k) {
        stepPorts(port, back);
        EXPECT_EQ(saveDigest(back), saveDigest(port)) << "step " << k;
    }
}

TEST(Snapshot, InputPortRoundTripOfDrainedStreamingVc)
{
    // The connected packet is still streaming in and every flit
    // buffered so far has been sent: the VC is busy with no flit to
    // save, so its header comes back from the source queue head.
    net::InputPort port(2, 4);
    port.sourceQueue().push_back(makePacket(20, 9, 200));
    port.fillCycle();
    port.connect(port.pickCandidateVc(), 9);
    port.sendFlit();
    port.fillCycle();
    port.sendFlit();
    EXPECT_EQ(saveDigest(port), 0x0eee709edc3b216dull);

    net::InputPort back(2, 4);
    copyState(port, back);
    EXPECT_EQ(saveDigest(back), saveDigest(port));
    EXPECT_EQ(back.flitsLeft(), 2u);
    EXPECT_EQ(back.fillProgress(), 2u);
    for (int k = 0; k < 4; ++k) {
        stepPorts(port, back);
        EXPECT_EQ(saveDigest(back), saveDigest(port)) << "step " << k;
    }
    EXPECT_FALSE(back.connected());
    EXPECT_EQ(back.backlogFlits(), 0u);
}

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

TEST(Snapshot, QueueModeMismatchIsRejectedNotCrashed)
{
    // At saturation the payload layout depends on the queue mode
    // (virtual queues write only each input's next packet), so a
    // snapshot taken in one mode must be refused by the other, and
    // the refused point then runs fresh.
    for (bool saved_legacy : {true, false}) {
        SCOPED_TRACE(saved_legacy ? "materialized -> virtual"
                                  : "virtual -> materialized");
        auto cfg = [](bool legacy) {
            sim::SimConfig c = cfgAt(1.0, false);
            c.legacySatQueues = legacy;
            return c;
        };
        std::string path = tmpPath("queue_mode");
        sim::NetworkSim a(hiriseSpec(), cfg(saved_legacy),
                          std::make_shared<traffic::UniformRandom>(64));
        a.advanceTo(200);
        ASSERT_TRUE(a.saveSnapshotFile(path));

        sim::NetworkSim b(hiriseSpec(), cfg(!saved_legacy),
                          std::make_shared<traffic::UniformRandom>(64));
        EXPECT_FALSE(b.loadSnapshotFile(path));
        EXPECT_EQ(b.now(), 0u);
        sim::NetworkSim fresh(hiriseSpec(), cfg(!saved_legacy),
                              std::make_shared<traffic::UniformRandom>(64));
        expectSame(b.run(), fresh.run());

        sim::NetworkSim same(hiriseSpec(), cfg(saved_legacy),
                             std::make_shared<traffic::UniformRandom>(64));
        EXPECT_TRUE(same.loadSnapshotFile(path));
        EXPECT_EQ(same.now(), 200u);
        std::remove(path.c_str());
    }
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
