/**
 * @file
 * Virtual source queues (sim/virtual_queue.hh): on a memoryless
 * pattern NetworkSim never materializes its source queues, at any
 * load. These tests pin the bit-identity contract against the
 * materialized queues (the cfg.legacySatQueues pin) across every
 * pattern class, radix, stepping mode and load: SimResults, per-cycle
 * state, snapshot bytes (the only place, with traces, where a wrong
 * packet id shows), mid-run restores, fault breaks of a packet still
 * streaming from its queue, and trace events; plus the activation
 * predicate itself.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/snapshot.hh"
#include "obs/trace.hh"
#include "sim/network_sim.hh"
#include "traffic/pattern.hh"
#include "traffic/trace.hh"

using namespace hirise;
using traffic::TrafficPattern;

namespace {

SwitchSpec
hiriseSpec(std::uint32_t radix)
{
    SwitchSpec s;
    s.topo = Topology::HiRise;
    s.radix = radix;
    s.layers = 4;
    s.channels = 4;
    s.arb = ArbScheme::Clrg;
    return s;
}

enum class Pat
{
    Uniform,
    Hotspot,
    Bursty,
    Transpose,
    BitComplement,
    Trace,
};

const char *
patName(Pat p)
{
    switch (p) {
      case Pat::Uniform: return "uniform";
      case Pat::Hotspot: return "hotspot";
      case Pat::Bursty: return "bursty";
      case Pat::Transpose: return "transpose";
      case Pat::BitComplement: return "bit-complement";
      case Pat::Trace: return "trace";
    }
    return "?";
}

std::shared_ptr<TrafficPattern>
makePattern(Pat p, std::uint32_t radix)
{
    switch (p) {
      case Pat::Uniform:
        return std::make_shared<traffic::UniformRandom>(radix);
      case Pat::Hotspot:
        return std::make_shared<traffic::Hotspot>(radix, radix - 1);
      case Pat::Bursty:
        return std::make_shared<traffic::Bursty>(radix, 6.0);
      case Pat::Transpose:
        return std::make_shared<traffic::Transpose>(radix);
      case Pat::BitComplement:
        return std::make_shared<traffic::BitComplement>(radix);
      case Pat::Trace: {
        std::vector<traffic::TraceRecord> recs;
        for (std::uint64_t k = 0; k < 40; ++k) {
            std::uint32_t src = (7 * k) % radix;
            std::uint32_t dst = (src + 1 + 3 * k) % radix;
            if (dst == src)
                dst = (dst + 1) % radix;
            recs.push_back({k * 7, src, dst});
        }
        return std::make_shared<traffic::TraceReplay>(recs, radix);
      }
    }
    return nullptr;
}

sim::SimConfig
satConfig(double load, bool dense, bool legacy)
{
    sim::SimConfig cfg;
    cfg.injectionRate = load;
    cfg.warmupCycles = 150;
    cfg.measureCycles = 600;
    cfg.seed = 99;
    cfg.denseStepping = dense;
    cfg.legacySatQueues = legacy;
    return cfg;
}

sim::SimResult
runPath(const SwitchSpec &spec, Pat p, double load, bool dense,
        bool legacy)
{
    sim::NetworkSim s(spec, satConfig(load, dense, legacy),
                      makePattern(p, spec.radix));
    return s.run();
}

void
expectSame(const sim::SimResult &a, const sim::SimResult &b)
{
    // Bit-exact: no tolerances anywhere. Both paths consume the same
    // counter streams in the same order, so even float summation
    // order matches.
    EXPECT_EQ(a.offeredFlitsPerCycle, b.offeredFlitsPerCycle);
    EXPECT_EQ(a.acceptedFlitsPerCycle, b.acceptedFlitsPerCycle);
    EXPECT_EQ(a.avgLatencyCycles, b.avgLatencyCycles);
    EXPECT_EQ(a.p99LatencyCycles, b.p99LatencyCycles);
    EXPECT_EQ(a.avgQueueingCycles, b.avgQueueingCycles);
    EXPECT_EQ(a.packetsDelivered, b.packetsDelivered);
    EXPECT_EQ(a.inFlightAtMeasureEnd, b.inFlightAtMeasureEnd);
    EXPECT_EQ(a.latencyOverflowPackets, b.latencyOverflowPackets);
    EXPECT_EQ(a.fairness, b.fairness);
    EXPECT_EQ(a.perInputLatency, b.perInputLatency);
    EXPECT_EQ(a.perInputThroughput, b.perInputThroughput);
}

} // namespace

TEST(SatFastPath, ActivatesForEveryMemorylessLoad)
{
    const SwitchSpec spec = hiriseSpec(16);

    // Memoryless pattern: active at every load, below saturation and
    // above it (load > 1 saturates the Bernoulli threshold too).
    for (double load : {0.0, 0.05, 0.5, 0.999, 1.0, 1.25, 3.0}) {
        for (bool dense : {false, true}) {
            sim::NetworkSim s(spec, satConfig(load, dense, false),
                              makePattern(Pat::Uniform, spec.radix));
            EXPECT_TRUE(s.virtualSourceQueuesActive())
                << "load " << load << " dense " << dense;
        }
    }

    // The legacy pin keeps materialized queues at every load.
    for (double load : {0.5, 1.0}) {
        sim::NetworkSim s(spec, satConfig(load, true, true),
                          makePattern(Pat::Uniform, spec.radix));
        EXPECT_FALSE(s.virtualSourceQueuesActive()) << "load " << load;
    }

    // Stateful / replay patterns: inactive regardless of load.
    for (Pat p : {Pat::Bursty, Pat::Trace}) {
        sim::NetworkSim s(spec, satConfig(1.0, true, false),
                          makePattern(p, spec.radix));
        EXPECT_FALSE(s.virtualSourceQueuesActive()) << patName(p);
    }
}

TEST(SatFastPath, BitIdenticalToLegacyAcrossPatternsRadicesAndModes)
{
    const Pat pats[] = {Pat::Uniform, Pat::Hotspot, Pat::Bursty,
                        Pat::Transpose, Pat::BitComplement, Pat::Trace};
    const std::uint32_t radices[] = {16, 64, 256};
    const double loads[] = {1.0, 1.25};

    for (Pat p : pats) {
        for (std::uint32_t radix : radices) {
            for (double load : loads) {
                for (bool dense : {false, true}) {
                    SCOPED_TRACE(std::string(patName(p)) + " r" +
                                 std::to_string(radix) + " load " +
                                 std::to_string(load) +
                                 (dense ? " dense" : " event"));
                    auto fast = runPath(hiriseSpec(radix), p, load,
                                        dense, false);
                    auto legacy = runPath(hiriseSpec(radix), p, load,
                                          dense, true);
                    expectSame(fast, legacy);
                }
            }
        }
    }
}

TEST(SatFastPath, PerCycleStateMatchesLegacyUnderStepping)
{
    // Lockstep the fast and legacy paths one step() at a time: this
    // pins down *when* a divergence would first appear (end-of-run
    // identity alone can mask compensating errors). Source queue sizes
    // intentionally differ (the fast path keeps them empty); the
    // externally observable totals — injected, delivered, conservation
    // backlog, per-port connections — must match every cycle.
    for (Pat p : {Pat::Uniform, Pat::Transpose}) {
        for (bool dense : {false, true}) {
            SCOPED_TRACE(std::string(patName(p)) +
                         (dense ? " dense" : " event"));
            SwitchSpec spec = hiriseSpec(64);
            sim::NetworkSim fast(spec, satConfig(1.0, dense, false),
                                 makePattern(p, 64));
            sim::NetworkSim legacy(spec, satConfig(1.0, dense, true),
                                   makePattern(p, 64));
            ASSERT_TRUE(fast.virtualSourceQueuesActive());
            ASSERT_FALSE(legacy.virtualSourceQueuesActive());

            for (int t = 0; t < 400; ++t) {
                fast.step();
                legacy.step();
                ASSERT_EQ(fast.now(), legacy.now());
                ASSERT_EQ(fast.totalInjectedPackets(),
                          legacy.totalInjectedPackets())
                    << "cycle " << t;
                ASSERT_EQ(fast.totalDeliveredPackets(),
                          legacy.totalDeliveredPackets())
                    << "cycle " << t;
                ASSERT_EQ(fast.backlogFlits(), legacy.backlogFlits())
                    << "cycle " << t;
                for (std::uint32_t i = 0; i < 64; ++i) {
                    ASSERT_EQ(fast.port(i).connected(),
                              legacy.port(i).connected())
                        << "cycle " << t << " input " << i;
                    ASSERT_TRUE(fast.port(i).sourceQueue().empty())
                        << "cycle " << t << " input " << i;
                }
            }
        }
    }
}

namespace {

/** Snapshot payload bytes of @p s's current state. */
std::vector<std::uint8_t>
saveBytes(const sim::NetworkSim &s)
{
    snap::Writer w;
    s.save(w);
    return w.buffer();
}

/** (input, vc, id, dst, genCycle, buffered) of every busy VC: the
 *  packet ids that reached the VCs, whatever the snapshot layout. */
std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t,
                       std::uint32_t, std::uint64_t, std::uint32_t>>
vcPackets(sim::NetworkSim &s, std::uint32_t radix)
{
    std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t,
                           std::uint32_t, std::uint64_t, std::uint32_t>>
        out;
    for (std::uint32_t i = 0; i < radix; ++i) {
        const auto &vcs = s.port(i).vcs();
        for (std::uint32_t v = 0; v < vcs.size(); ++v) {
            if (!vcs[v].busy())
                continue;
            const net::Packet &p = vcs[v].packet();
            out.emplace_back(i, v, p.id, p.dst, p.genCycle,
                             vcs[v].buffered());
        }
    }
    return out;
}

/** Step a virtual-queue sim and a materialized one in lockstep,
 *  comparing observable state every cycle and snapshot bytes (or, at
 *  saturation, whose layout keeps only the heads, the VC packets)
 *  every @p every cycles; then run both out and compare results. */
void
lockstepAgainstMaterialized(const SwitchSpec &spec, Pat p, double load,
                            bool dense, int cycles, int every)
{
    sim::NetworkSim virt(spec, satConfig(load, dense, false),
                         makePattern(p, spec.radix));
    sim::NetworkSim mat(spec, satConfig(load, dense, true),
                        makePattern(p, spec.radix));
    ASSERT_TRUE(virt.virtualSourceQueuesActive());
    ASSERT_FALSE(mat.virtualSourceQueuesActive());
    const bool sat = sim::VirtualSourceQueues::saturates(load);
    for (net::Cycle t = 1; t <= net::Cycle(cycles); ++t) {
        virt.advanceTo(t); // keeps the measurement window exact
        mat.advanceTo(t);
        ASSERT_EQ(virt.totalInjectedPackets(), mat.totalInjectedPackets())
            << "cycle " << t;
        ASSERT_EQ(virt.totalDeliveredPackets(),
                  mat.totalDeliveredPackets())
            << "cycle " << t;
        ASSERT_EQ(virt.backlogFlits(), mat.backlogFlits())
            << "cycle " << t;
        for (std::uint32_t i = 0; i < spec.radix; ++i) {
            ASSERT_EQ(virt.queuedPackets(i), mat.queuedPackets(i))
                << "cycle " << t << " input " << i;
            ASSERT_EQ(virt.port(i).connected(), mat.port(i).connected())
                << "cycle " << t << " input " << i;
            ASSERT_TRUE(virt.port(i).sourceQueue().empty());
        }
        if (t % net::Cycle(every) == 0) {
            ASSERT_EQ(vcPackets(virt, spec.radix),
                      vcPackets(mat, spec.radix))
                << "cycle " << t;
            if (!sat) {
                ASSERT_EQ(saveBytes(virt), saveBytes(mat))
                    << "cycle " << t;
            }
        }
    }
    expectSame(virt.run(), mat.run());
}

sim::FaultSchedule
streamingBreaks()
{
    // Channel losses while long packets (16 flits through 4-flit
    // VCs) are connected: every break drops a packet whose tail is
    // still queued at the source, so the queue's head must retire.
    sim::FaultSchedule sched;
    for (net::Cycle c : {90u, 160u, 230u, 300u}) {
        sched.events.push_back(
            {c, sim::FaultEvent::Kind::FailChannel, 0, 1, 0});
        sched.events.push_back(
            {c, sim::FaultEvent::Kind::FailChannel, 1, 0, 0});
        sched.events.push_back(
            {c + 30, sim::FaultEvent::Kind::RecoverChannel, 0, 1, 0});
        sched.events.push_back(
            {c + 30, sim::FaultEvent::Kind::RecoverChannel, 1, 0, 0});
    }
    sched.flaky.push_back({2, 3, 0, 0.2});
    sched.maxErrorsPerWindow = 1;
    sched.windowCycles = 32;
    sched.recoveryCycles = 40;
    return sched;
}

} // namespace

TEST(SatFastPath, LockstepBytesMatchMaterializedQueuesAtEveryLoad)
{
    const Pat pats[] = {Pat::Uniform, Pat::Hotspot, Pat::Transpose,
                        Pat::BitComplement};
    for (double load : {0.05, 0.2, 0.5, 0.9, 0.999, 1.0}) {
        for (Pat p : pats) {
            for (std::uint32_t radix : {16u, 64u, 256u}) {
                for (bool dense : {false, true}) {
                    SCOPED_TRACE(std::string(patName(p)) + " r" +
                                 std::to_string(radix) + " load " +
                                 std::to_string(load) +
                                 (dense ? " dense" : " event"));
                    lockstepAgainstMaterialized(hiriseSpec(radix), p,
                                                load, dense, 300, 75);
                }
            }
        }
    }
}

TEST(SatFastPath, MidRunRestoreContinuesBitIdentically)
{
    for (double load : {0.05, 0.3, 0.7, 1.0}) {
        for (bool dense : {false, true}) {
            SCOPED_TRACE("load " + std::to_string(load) +
                         (dense ? " dense" : " event"));
            const SwitchSpec spec = hiriseSpec(64);
            auto mk = [&] {
                return std::make_unique<sim::NetworkSim>(
                    spec, satConfig(load, dense, false),
                    makePattern(Pat::Uniform, 64));
            };
            auto whole = mk();
            auto cut = mk();
            whole->advanceTo(320);
            cut->advanceTo(320);
            auto restored = mk();
            {
                const auto bytes = saveBytes(*cut);
                snap::Reader r(bytes);
                restored->load(r);
                ASSERT_TRUE(r.done());
            }
            EXPECT_EQ(saveBytes(*restored), saveBytes(*whole));
            for (net::Cycle c : {333u, 401u, 577u}) {
                whole->advanceTo(c);
                restored->advanceTo(c);
                ASSERT_EQ(saveBytes(*restored), saveBytes(*whole))
                    << "cycle " << c;
            }
            expectSame(restored->run(), whole->run());
        }
    }
}

TEST(SatFastPath, FaultBreakWhileHeadStreamsBelowLoadOne)
{
    for (double load : {0.1, 0.5}) {
        for (bool dense : {false, true}) {
            SCOPED_TRACE("load " + std::to_string(load) +
                         (dense ? " dense" : " event"));
            const SwitchSpec spec = hiriseSpec(64);
            auto mk = [&](bool legacy) {
                sim::SimConfig cfg = satConfig(load, dense, legacy);
                cfg.packetLen = 16;
                auto s = std::make_unique<sim::NetworkSim>(
                    spec, cfg, makePattern(Pat::Uniform, 64));
                s->setFaultSchedule(streamingBreaks());
                return s;
            };
            auto virt = mk(false);
            auto mat = mk(true);
            for (net::Cycle c = 50; c <= 400; c += 50) {
                virt->advanceTo(c);
                mat->advanceTo(c);
                ASSERT_EQ(saveBytes(*virt), saveBytes(*mat))
                    << "cycle " << c;
            }
            EXPECT_GT(virt->totalDroppedPackets(), 0u);
            EXPECT_EQ(virt->totalDroppedPackets(),
                      mat->totalDroppedPackets());
            EXPECT_EQ(virt->totalDroppedFlits(), mat->totalDroppedFlits());
            expectSame(virt->run(), mat->run());
        }
    }
}

TEST(SatFastPath, TraceEventsMatchMaterializedQueues)
{
    if (!obs::compiledIn())
        GTEST_SKIP() << "built with HIRISE_TRACE=OFF";
    auto &tr = obs::CycleTracer::global();
    auto events = [&](double load, bool dense, bool legacy) {
        tr.clear();
        tr.enable(1u << 18);
        {
            sim::NetworkSim s(hiriseSpec(16),
                              satConfig(load, dense, legacy),
                              makePattern(Pat::Uniform, 16));
            for (int t = 0; t < 400; ++t)
                s.step();
        }
        tr.disable();
        std::vector<std::tuple<int, std::uint64_t, std::uint32_t,
                               std::uint32_t, std::uint32_t,
                               std::uint64_t>>
            out;
        for (const auto &e : tr.snapshot())
            out.emplace_back(static_cast<int>(e.kind), e.cycle, e.a, e.b,
                             e.c, e.id);
        return out;
    };
    for (double load : {0.1, 0.4, 1.0}) {
        for (bool dense : {false, true}) {
            SCOPED_TRACE("load " + std::to_string(load) +
                         (dense ? " dense" : " event"));
            const auto virt = events(load, dense, false);
            const auto mat = events(load, dense, true);
            ASSERT_GT(virt.size(), 100u);
            ASSERT_EQ(virt, mat);
        }
    }
    tr.clear();
    obs::setEnabled(false);
}

TEST(SatFastPath, OffByOneQueueIdFailsTheByteCheck)
{
    // A wrong id leaves every SimResult field alone; only snapshot
    // bytes (and traces) show it, which is why the tests above
    // compare bytes.
    const SwitchSpec spec = hiriseSpec(64);
    sim::NetworkSim bad(spec, satConfig(0.5, false, false),
                        makePattern(Pat::Uniform, 64));
    bad.mutateQueueIds();
    sim::NetworkSim mat(spec, satConfig(0.5, false, true),
                        makePattern(Pat::Uniform, 64));
    bad.advanceTo(300);
    mat.advanceTo(300);
    EXPECT_NE(saveBytes(bad), saveBytes(mat));
    expectSame(bad.run(), mat.run());
}
