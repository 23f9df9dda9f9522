/**
 * @file
 * Tests for the 64-core CMP substrate: workloads, the closed-loop
 * message switch, and system-level behaviour.
 */

#include <gtest/gtest.h>

#include "cmp/graph_transport.hh"

#include "check/lockstep.hh"
#include "common/random.hh"
#include "cmp/msg_switch.hh"
#include "cmp/system.hh"
#include "cmp/workload.hh"
#include "noc/topology.hh"

using namespace hirise;
using namespace hirise::cmp;

namespace {

SwitchSpec
flat64()
{
    SwitchSpec s;
    s.topo = Topology::Flat2D;
    s.radix = 64;
    s.arb = ArbScheme::Lrg;
    return s;
}

SwitchSpec
hirise64()
{
    SwitchSpec s;
    s.topo = Topology::HiRise;
    s.radix = 64;
    s.layers = 4;
    s.channels = 4;
    s.arb = ArbScheme::Clrg;
    return s;
}

std::vector<Benchmark>
uniformWorkload(double mpki, double l2_hit, std::uint32_t cores = 64)
{
    Benchmark b{"synthetic", mpki, l2_hit};
    return std::vector<Benchmark>(cores, b);
}

} // namespace

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

TEST(Workload, AllPaperMixesAssignToSixtyFourCores)
{
    for (const auto &mix : paperMixes()) {
        auto cores = assignMix(mix, 64);
        EXPECT_EQ(cores.size(), 64u) << mix.name;
    }
}

TEST(Workload, MixAverageMpkiMatchesPaperColumn)
{
    for (const auto &mix : paperMixes()) {
        auto cores = assignMix(mix, 64);
        double sum = 0;
        for (const auto &b : cores)
            sum += b.mpki;
        EXPECT_NEAR(sum / 64.0, mix.paperAvgMpki,
                    0.01 * mix.paperAvgMpki)
            << mix.name;
    }
}

TEST(Workload, EightMixesOrderedByMpki)
{
    const auto &mixes = paperMixes();
    ASSERT_EQ(mixes.size(), 8u);
    for (std::size_t i = 1; i < mixes.size(); ++i)
        EXPECT_GT(mixes[i].paperAvgMpki, mixes[i - 1].paperAvgMpki);
}

TEST(Workload, FindBenchmarkDiesOnUnknown)
{
    EXPECT_DEATH(findBenchmark("notabenchmark"), "unknown benchmark");
}

TEST(Workload, HitRatesAreProbabilities)
{
    for (const auto &mix : paperMixes()) {
        for (const auto &b : assignMix(mix, 64)) {
            EXPECT_GT(b.l2HitRate, 0.0);
            EXPECT_LT(b.l2HitRate, 1.0);
            EXPECT_GT(b.mpki, 0.0);
        }
    }
}

// ---------------------------------------------------------------------
// MsgSwitch
// ---------------------------------------------------------------------

TEST(MsgSwitch, DeliversMessageWithCorrectTiming)
{
    std::vector<Message> delivered;
    MsgSwitch sw(flat64(), 4,
                 [&](const Message &m) { delivered.push_back(m); });
    Message m;
    m.type = MsgType::L2Response; // 4 flits
    m.srcTile = 3;
    m.dstTile = 9;
    sw.send(m);
    // 1 arbitration cycle + 4 data cycles.
    for (int t = 0; t < 4; ++t) {
        sw.step();
        EXPECT_TRUE(delivered.empty()) << "cycle " << t;
    }
    sw.step();
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0].dstTile, 9u);
    EXPECT_EQ(sw.flitsDelivered(), 4u);
}

TEST(MsgSwitch, ControlMessagesTakeTwoCycles)
{
    int delivered = 0;
    MsgSwitch sw(flat64(), 4, [&](const Message &) { ++delivered; });
    Message m;
    m.type = MsgType::L2Request; // 1 flit
    m.srcTile = 0;
    m.dstTile = 1;
    sw.send(m);
    sw.step();
    EXPECT_EQ(delivered, 0);
    sw.step();
    EXPECT_EQ(delivered, 1);
}

TEST(MsgSwitch, RejectsLocalTraffic)
{
    MsgSwitch sw(flat64(), 4, [](const Message &) {});
    Message m;
    m.srcTile = 5;
    m.dstTile = 5;
    EXPECT_DEATH(sw.send(m), "tile-local");
}

TEST(MsgSwitch, ManyMessagesAllDelivered)
{
    std::uint64_t delivered = 0;
    MsgSwitch sw(hirise64(), 4,
                 [&](const Message &) { ++delivered; });
    Rng rng(3);
    std::uint64_t sent = 0;
    for (int t = 0; t < 2000; ++t) {
        if (t < 1000) {
            for (int k = 0; k < 2; ++k) {
                Message m;
                m.type = rng.bernoulli(0.5) ? MsgType::L2Request
                                            : MsgType::L2Response;
                m.srcTile = static_cast<std::uint32_t>(rng.below(64));
                do {
                    m.dstTile =
                        static_cast<std::uint32_t>(rng.below(64));
                } while (m.dstTile == m.srcTile);
                sw.send(m);
                ++sent;
            }
        }
        sw.step();
    }
    // Drain.
    for (int t = 0; t < 20000 && sw.backlogMessages() > 0; ++t)
        sw.step();
    EXPECT_EQ(sw.backlogMessages(), 0u);
    EXPECT_EQ(delivered, sent);
}

TEST(MsgSwitch, LockstepOracleAgreesOnMix8)
{
    // The switch's active-list arbitration and idle-cycle skipping run
    // against the reference fabric cycle by cycle, and the system
    // result must match the default fabric's bit for bit.
    for (const SwitchSpec &spec : {flat64(), hirise64()}) {
        SCOPED_TRACE(toString(spec.topo));
        SystemConfig cfg;
        auto per_core = assignMix(paperMixes()[7], cfg.numTiles);
        check::LockstepFabric *lock = nullptr;
        CmpSystem checked(
            [&](Transport::DeliverFn deliver) {
                auto f = std::make_unique<check::LockstepFabric>(spec);
                lock = f.get();
                return std::make_unique<MsgSwitch>(
                    spec, cfg.switchVcs, std::move(deliver),
                    std::move(f));
            },
            cfg, per_core);
        CmpSystem plain(spec, cfg, per_core);
        SystemResult a = checked.run(500, 2500);
        SystemResult b = plain.run(500, 2500);

        ASSERT_NE(lock, nullptr);
        EXPECT_FALSE(lock->mismatched()) << lock->mismatchDetail();
        EXPECT_GT(a.networkMessages, 0u);
        EXPECT_EQ(a.totalIpc, b.totalIpc);
        EXPECT_EQ(a.avgMissLatencyNs, b.avgMissLatencyNs);
        EXPECT_EQ(a.networkMessages, b.networkMessages);
        ASSERT_EQ(a.cores.size(), b.cores.size());
        for (std::size_t c = 0; c < a.cores.size(); ++c) {
            EXPECT_EQ(a.cores[c].retired, b.cores[c].retired) << c;
            EXPECT_EQ(a.cores[c].misses, b.cores[c].misses) << c;
            EXPECT_EQ(a.cores[c].stallCycles, b.cores[c].stallCycles)
                << c;
        }
    }
}

// ---------------------------------------------------------------------
// CmpSystem
// ---------------------------------------------------------------------

TEST(CmpSystem, ZeroMpkiRunsAtFullIssueWidth)
{
    SystemConfig cfg;
    CmpSystem sys(flat64(), cfg, uniformWorkload(0.0, 0.5));
    auto r = sys.run(1000, 5000);
    // 64 cores x 2-wide, no misses: IPC == 2 per core.
    EXPECT_NEAR(r.totalIpc, 128.0, 0.01);
    EXPECT_EQ(r.networkMessages, 0u);
}

TEST(CmpSystem, IpcFallsAsMpkiRises)
{
    SystemConfig cfg;
    double prev = 1e9;
    for (double mpki : {5.0, 20.0, 60.0}) {
        CmpSystem sys(flat64(), cfg, uniformWorkload(mpki, 0.5));
        auto r = sys.run(2000, 10000);
        EXPECT_LT(r.totalIpc, prev) << "mpki " << mpki;
        prev = r.totalIpc;
        EXPECT_GT(r.networkMessages, 0u);
    }
}

TEST(CmpSystem, MissLatencyIncludesMemoryForL2Misses)
{
    SystemConfig cfg;
    // All L1 misses also miss in the L2: latency >= 80ns DRAM.
    CmpSystem far(flat64(), cfg, uniformWorkload(10.0, 0.001));
    auto rfar = far.run(2000, 10000);
    CmpSystem near(flat64(), cfg, uniformWorkload(10.0, 0.999));
    auto rnear = near.run(2000, 10000);
    EXPECT_GT(rfar.avgMissLatencyNs, 80.0);
    EXPECT_LT(rnear.avgMissLatencyNs, rfar.avgMissLatencyNs);
    EXPECT_GT(rnear.avgMissLatencyNs, 3.0); // L2 + 2 network trips
}

TEST(CmpSystem, FasterSwitchNeverHurtsHighMpki)
{
    SystemConfig slow;
    slow.switchFreqGhz = 1.69; // 2D clock
    SystemConfig fast = slow;
    fast.switchFreqGhz = 2.2; // Hi-Rise CLRG clock

    CmpSystem s1(flat64(), slow, uniformWorkload(60.0, 0.5));
    CmpSystem s2(hirise64(), fast, uniformWorkload(60.0, 0.5));
    auto r1 = s1.run(3000, 15000);
    auto r2 = s2.run(3000, 15000);
    EXPECT_GT(r2.totalIpc, r1.totalIpc);
}

TEST(CmpSystem, DeterministicForSeed)
{
    SystemConfig cfg;
    CmpSystem a(flat64(), cfg, uniformWorkload(30.0, 0.5));
    CmpSystem b(flat64(), cfg, uniformWorkload(30.0, 0.5));
    EXPECT_DOUBLE_EQ(a.run(1000, 5000).totalIpc,
                     b.run(1000, 5000).totalIpc);
}

TEST(GraphTransport, DeliversMessagesOverFlattenedButterfly)
{
    std::vector<Message> got;
    GraphTransport net(
        std::make_shared<noc::FlattenedButterfly>(4, 4, 4, 2.0),
        [&](const Message &m) { got.push_back(m); });
    Message m;
    m.type = MsgType::L2Response;
    m.srcTile = 0;
    m.dstTile = 63;
    m.txnId = 42;
    net.send(m);
    for (int t = 0; t < 100 && got.empty(); ++t)
        net.step();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].txnId, 42u);
    EXPECT_EQ(net.messagesDelivered(), 1u);
}

TEST(GraphTransport, ManyMessagesConserved)
{
    std::uint64_t got = 0;
    GraphTransport net(std::make_shared<noc::LowRadixMesh>(8, 1, 1.0),
                       [&](const Message &) { ++got; });
    Rng rng(5);
    std::uint64_t sent = 0;
    for (int t = 0; t < 3000; ++t) {
        if (t < 1500 && rng.bernoulli(0.8)) {
            Message m;
            m.type = MsgType::L2Request;
            m.srcTile = static_cast<std::uint32_t>(rng.below(64));
            do {
                m.dstTile =
                    static_cast<std::uint32_t>(rng.below(64));
            } while (m.dstTile == m.srcTile);
            net.send(m);
            ++sent;
        }
        net.step();
    }
    for (int t = 0; t < 30000 && got < sent; ++t)
        net.step();
    EXPECT_EQ(got, sent);
}

TEST(CmpSystem, RunsOnRoutedTransport)
{
    SystemConfig cfg;
    cfg.switchFreqGhz = 2.0;
    CmpSystem::TransportFactory make =
        [&](Transport::DeliverFn deliver) {
            return std::make_unique<GraphTransport>(
                std::make_shared<noc::FlattenedButterfly>(4, 4, 4,
                                                          2.0),
                std::move(deliver));
        };
    CmpSystem sys(make, cfg, uniformWorkload(30.0, 0.5));
    auto r = sys.run(2000, 10000);
    EXPECT_GT(r.totalIpc, 0.0);
    EXPECT_GT(r.networkMessages, 0u);
    // The central Hi-Rise system should do at least as well on the
    // same workload (the section VI-E speedup claim).
    CmpSystem central(
        [] {
            SwitchSpec s;
            s.topo = Topology::HiRise;
            s.radix = 64;
            s.layers = 4;
            s.channels = 4;
            s.arb = ArbScheme::Clrg;
            return s;
        }(),
        [] {
            SystemConfig c;
            c.switchFreqGhz = 2.2;
            return c;
        }(),
        uniformWorkload(30.0, 0.5));
    auto rc = central.run(2000, 10000);
    EXPECT_GE(rc.totalIpc, 0.98 * r.totalIpc);
}

TEST(CmpSystem, StallCyclesReportedWhenBlocked)
{
    SystemConfig cfg;
    cfg.blockingFraction = 1.0; // every miss blocks
    CmpSystem sys(flat64(), cfg, uniformWorkload(50.0, 0.3));
    auto r = sys.run(2000, 10000);
    std::uint64_t stalls = 0;
    for (const auto &c : r.cores)
        stalls += c.stallCycles;
    EXPECT_GT(stalls, 0u);
    EXPECT_LT(r.totalIpc, 64.0); // far below 2 IPC/core
}
