/**
 * @file
 * Tests for the switch fabrics: structural invariants, deterministic
 * walkthroughs of the paper's arbitration examples at fabric level,
 * and randomized property tests of the grant/hold/release protocol.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "common/random.hh"
#include "common/snapshot.hh"
#include "fabric/fabric.hh"
#include "fabric/flat2d.hh"
#include "fabric/hirise.hh"

using namespace hirise;
using namespace hirise::fabric;

namespace {

SwitchSpec
hiriseSpec(std::uint32_t channels = 4,
           ArbScheme arb = ArbScheme::LayerLrg,
           std::uint32_t radix = 64, std::uint32_t layers = 4)
{
    SwitchSpec s;
    s.topo = Topology::HiRise;
    s.radix = radix;
    s.layers = layers;
    s.channels = channels;
    s.arb = arb;
    return s;
}

SwitchSpec
flatSpec(std::uint32_t radix = 64)
{
    SwitchSpec s;
    s.topo = Topology::Flat2D;
    s.radix = radix;
    s.arb = ArbScheme::Lrg;
    return s;
}

std::vector<std::uint32_t>
noRequests(std::uint32_t radix)
{
    return std::vector<std::uint32_t>(radix, kNoRequest);
}

} // namespace

// ---------------------------------------------------------------------
// Flat2dFabric
// ---------------------------------------------------------------------

TEST(Flat2d, SingleRequestGranted)
{
    Flat2dFabric f(flatSpec(8));
    auto req = noRequests(8);
    req[3] = 5;
    auto g = f.arbitrate(req);
    EXPECT_TRUE(g[3]);
    EXPECT_TRUE(f.outputBusy(5));
    EXPECT_EQ(f.outputHolder(5), 3u);
}

TEST(Flat2d, BusyOutputNotRegranted)
{
    Flat2dFabric f(flatSpec(8));
    auto req = noRequests(8);
    req[3] = 5;
    EXPECT_TRUE(f.arbitrate(req)[3]);
    req = noRequests(8);
    req[4] = 5;
    EXPECT_FALSE(f.arbitrate(req)[4]);
    f.release(3, 5);
    EXPECT_TRUE(f.arbitrate(req)[4]);
}

TEST(Flat2d, ContendersRotateLrg)
{
    Flat2dFabric f(flatSpec(4));
    std::vector<std::uint32_t> seq;
    for (int i = 0; i < 8; ++i) {
        auto req = noRequests(4);
        req[0] = req[1] = req[2] = req[3] = 2;
        auto g = f.arbitrate(req);
        for (std::uint32_t j = 0; j < 4; ++j) {
            if (g[j]) {
                seq.push_back(j);
                f.release(j, 2);
            }
        }
    }
    ASSERT_EQ(seq.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(seq[i], static_cast<std::uint32_t>(i % 4));
}

TEST(Flat2d, DistinctOutputsGrantedInParallel)
{
    Flat2dFabric f(flatSpec(8));
    auto req = noRequests(8);
    for (std::uint32_t i = 0; i < 8; ++i)
        req[i] = (i + 1) % 8;
    auto g = f.arbitrate(req);
    for (std::uint32_t i = 0; i < 8; ++i)
        EXPECT_TRUE(g[i]);
}

// ---------------------------------------------------------------------
// HiRiseFabric: structure
// ---------------------------------------------------------------------

TEST(HiRise, LayerAndChannelMapping)
{
    HiRiseFabric f(hiriseSpec(4));
    EXPECT_EQ(f.layerOf(0), 0u);
    EXPECT_EQ(f.layerOf(20), 1u);
    EXPECT_EQ(f.layerOf(63), 3u);
    EXPECT_EQ(f.localIdx(20), 4u);
    // Input-binned: local index mod c.
    EXPECT_EQ(f.channelFor(20, 63), 0u);
    EXPECT_EQ(f.channelFor(21, 63), 1u);
    EXPECT_EQ(f.channelFor(27, 0), 3u);
}

TEST(HiRise, OutputBinnedChannelMapping)
{
    auto s = hiriseSpec(4);
    s.alloc = ChannelAlloc::OutputBinned;
    HiRiseFabric f(s);
    EXPECT_EQ(f.channelFor(20, 63), 15u % 4);
    EXPECT_EQ(f.channelFor(21, 63), 15u % 4);
    EXPECT_EQ(f.channelFor(20, 48), 0u);
}

TEST(HiRise, SameLayerGrantUsesNoChannel)
{
    HiRiseFabric f(hiriseSpec(4));
    auto req = noRequests(64);
    req[2] = 10; // both on layer 0
    auto g = f.arbitrate(req);
    EXPECT_TRUE(g[2]);
    for (std::uint32_t d = 1; d < 4; ++d)
        for (std::uint32_t k = 0; k < 4; ++k)
            EXPECT_FALSE(f.channelBusy(0, d, k));
}

TEST(HiRise, CrossLayerGrantHoldsItsChannel)
{
    HiRiseFabric f(hiriseSpec(4));
    auto req = noRequests(64);
    req[20] = 63; // layer 1 -> layer 3, local idx 4 -> channel 0
    auto g = f.arbitrate(req);
    EXPECT_TRUE(g[20]);
    EXPECT_TRUE(f.channelBusy(1, 3, 0));
    EXPECT_FALSE(f.channelBusy(1, 3, 1));
    f.release(20, 63);
    EXPECT_FALSE(f.channelBusy(1, 3, 0));
    EXPECT_FALSE(f.outputBusy(63));
}

TEST(HiRise, BusyChannelBlocksSameBinDifferentOutput)
{
    HiRiseFabric f(hiriseSpec(4));
    auto req = noRequests(64);
    req[20] = 63;
    EXPECT_TRUE(f.arbitrate(req)[20]);
    // Input 24 (layer 1, local 8, channel 0) wants another output on
    // layer 3: its only channel is held, so it must lose.
    req = noRequests(64);
    req[24] = 62;
    EXPECT_FALSE(f.arbitrate(req)[24]);
    // A different-bin input gets through on its own channel.
    req = noRequests(64);
    req[21] = 62; // local 5 -> channel 1
    EXPECT_TRUE(f.arbitrate(req)[21]);
}

TEST(HiRise, LocalAndRemoteContendAtSubBlock)
{
    HiRiseFabric f(hiriseSpec(1));
    // Input 50 (layer 3, local) and input 0 (layer 0) both want 63.
    auto req = noRequests(64);
    req[50] = 63;
    req[0] = 63;
    auto g = f.arbitrate(req);
    int grants = (g[50] ? 1 : 0) + (g[0] ? 1 : 0);
    EXPECT_EQ(grants, 1);
    EXPECT_TRUE(f.outputBusy(63));
}

TEST(HiRise, LoserHoldsNothing)
{
    HiRiseFabric f(hiriseSpec(1, ArbScheme::LayerLrg));
    auto req = noRequests(64);
    req[0] = 63;  // layer 0 via C0,3
    req[16] = 63; // layer 1 via C1,3
    auto g = f.arbitrate(req);
    ASSERT_EQ((g[0] ? 1 : 0) + (g[16] ? 1 : 0), 1);
    std::uint32_t loser_layer = g[0] ? 1 : 0;
    // The loser's channel must be free for other traffic.
    EXPECT_FALSE(f.channelBusy(loser_layer, 3, 0));
}

// ---------------------------------------------------------------------
// HiRiseFabric: the paper's unfairness example at fabric level
// ---------------------------------------------------------------------

namespace {

/** Drive the section III-B pattern with immediate release (pure
 *  arbitration study) and histogram the winners. */
std::map<std::uint32_t, int>
runPaperPattern(Fabric &f, int cycles)
{
    std::map<std::uint32_t, int> wins;
    for (int t = 0; t < cycles; ++t) {
        auto req = noRequests(64);
        for (auto i : {3u, 7u, 11u, 15u, 20u})
            req[i] = 63;
        auto g = f.arbitrate(req);
        for (std::uint32_t i = 0; i < 64; ++i) {
            if (g[i]) {
                ++wins[i];
                f.release(i, 63);
            }
        }
    }
    return wins;
}

} // namespace

TEST(HiRise, PaperExampleLayerLrgFavorsLoneInput)
{
    HiRiseFabric f(hiriseSpec(1, ArbScheme::LayerLrg));
    auto wins = runPaperPattern(f, 400);
    // Input 20 alternates with L1's four inputs: ~1/2 share.
    EXPECT_NEAR(wins[20], 200, 4);
    for (auto i : {3u, 7u, 11u, 15u})
        EXPECT_NEAR(wins[i], 50, 4);
}

TEST(HiRise, PaperExampleClrgIsFair)
{
    HiRiseFabric f(hiriseSpec(1, ArbScheme::Clrg));
    auto wins = runPaperPattern(f, 500);
    for (auto i : {3u, 7u, 11u, 15u, 20u})
        EXPECT_NEAR(wins[i], 100, 5) << "input " << i;
}

TEST(HiRise, PaperExampleWlrgIsFair)
{
    HiRiseFabric f(hiriseSpec(1, ArbScheme::Wlrg));
    auto wins = runPaperPattern(f, 500);
    for (auto i : {3u, 7u, 11u, 15u, 20u})
        EXPECT_NEAR(wins[i], 100, 12) << "input " << i;
}

// ---------------------------------------------------------------------
// Property tests: protocol invariants under random traffic
// ---------------------------------------------------------------------

namespace {

struct FuzzParams
{
    SwitchSpec spec;
    std::string label;
};

class FabricFuzz : public ::testing::TestWithParam<FuzzParams>
{
};

} // namespace

TEST_P(FabricFuzz, ProtocolInvariantsHoldUnderRandomTraffic)
{
    const SwitchSpec spec = GetParam().spec;
    auto f = makeFabric(spec);
    Rng rng(2024);
    const std::uint32_t n = spec.radix;

    // Model of held connections: input -> output.
    std::vector<std::uint32_t> conn_out(n, kNoRequest);
    std::vector<std::uint32_t> conn_left(n, 0);
    std::vector<std::uint32_t> out_owner(n, kNoRequest);

    for (int t = 0; t < 3000; ++t) {
        std::vector<std::uint32_t> req(n, kNoRequest);
        for (std::uint32_t i = 0; i < n; ++i) {
            if (conn_out[i] == kNoRequest && rng.bernoulli(0.4))
                req[i] = static_cast<std::uint32_t>(rng.below(n));
        }
        auto g = f->arbitrate(req);
        ASSERT_EQ(g.size(), n);

        std::set<std::uint32_t> granted_outputs;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (!g[i])
                continue;
            // Grants only to requestors.
            ASSERT_NE(req[i], kNoRequest) << "cycle " << t;
            std::uint32_t o = req[i];
            // No output double-granted this cycle...
            ASSERT_TRUE(granted_outputs.insert(o).second);
            // ...and not granted while held.
            ASSERT_EQ(out_owner[o], kNoRequest) << "cycle " << t;
            out_owner[o] = i;
            conn_out[i] = o;
            conn_left[i] = 1 + static_cast<std::uint32_t>(rng.below(4));
            ASSERT_EQ(f->outputHolder(o), i);
        }

        // Advance transfers; release finished connections.
        for (std::uint32_t i = 0; i < n; ++i) {
            if (conn_out[i] == kNoRequest)
                continue;
            if (--conn_left[i] == 0) {
                f->release(i, conn_out[i]);
                out_owner[conn_out[i]] = kNoRequest;
                conn_out[i] = kNoRequest;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFabrics, FabricFuzz,
    ::testing::Values(
        FuzzParams{flatSpec(16), "flat16"},
        FuzzParams{flatSpec(64), "flat64"},
        FuzzParams{hiriseSpec(1, ArbScheme::LayerLrg), "h1lrg"},
        FuzzParams{hiriseSpec(2, ArbScheme::LayerLrg), "h2lrg"},
        FuzzParams{hiriseSpec(4, ArbScheme::Clrg), "h4clrg"},
        FuzzParams{hiriseSpec(4, ArbScheme::Wlrg), "h4wlrg"},
        FuzzParams{hiriseSpec(4, ArbScheme::Clrg, 48, 3), "r48l3"},
        FuzzParams{hiriseSpec(2, ArbScheme::Clrg, 64, 7), "r64l7"},
        FuzzParams{[] {
                       auto s = hiriseSpec(4, ArbScheme::Clrg);
                       s.alloc = ChannelAlloc::OutputBinned;
                       return s;
                   }(),
                   "outbin"},
        FuzzParams{[] {
                       auto s = hiriseSpec(4, ArbScheme::Clrg);
                       s.alloc = ChannelAlloc::Priority;
                       return s;
                   }(),
                   "prio"}),
    [](const ::testing::TestParamInfo<FuzzParams> &info) {
        return info.param.label;
    });

TEST(HiRise, StatsCountLocalAndCrossGrants)
{
    HiRiseFabric f(hiriseSpec(4));
    auto req = noRequests(64);
    req[2] = 10; // same layer
    f.arbitrate(req);
    f.release(2, 10);
    req = noRequests(64);
    req[20] = 63; // cross layer, channel (1,3,0)
    f.arbitrate(req);

    EXPECT_EQ(f.stats().grantsLocal, 1u);
    EXPECT_EQ(f.stats().grantsCross, 1u);
    std::uint64_t total = 0;
    for (auto g : f.stats().chanGrants)
        total += g;
    EXPECT_EQ(total, 1u);
}

TEST(HiRise, ChannelUtilizationTracksHeldCycles)
{
    HiRiseFabric f(hiriseSpec(4));
    auto req = noRequests(64);
    req[20] = 63;
    f.arbitrate(req); // grant; channel becomes busy after this call
    auto idle = noRequests(64);
    for (int t = 0; t < 9; ++t)
        f.arbitrate(idle); // 9 cycles with the channel held
    f.release(20, 63);
    f.arbitrate(idle);
    // Busy during 9 of 11 arbitration cycles (not the grant cycle,
    // not the one after release).
    EXPECT_NEAR(f.channelUtilization(1, 3, 0), 9.0 / 11.0, 1e-9);
    EXPECT_DOUBLE_EQ(f.channelUtilization(1, 3, 1), 0.0);
}

namespace {

std::vector<std::uint8_t>
savedBytes(const HiRiseFabric &f)
{
    snap::Writer w;
    f.save(w);
    return w.buffer();
}

} // namespace

TEST(HiRise, LazyBusyCyclesMatchPerCallAccounting)
{
    // The fabric stamps a channel at its grant and counts its busy
    // cycles only at release, at a fault's forced break and on read.
    // A test-side reference counts the plain way instead: every
    // arbitrate call adds channelBusy(s,d,k), every idle span of n
    // cycles adds n. Random runs mix held connections, early
    // releases, idle spans, mid-packet faults, recoveries and
    // save -> load; the two counts must agree after every step.
    const ChannelAlloc allocs[] = {ChannelAlloc::InputBinned,
                                   ChannelAlloc::OutputBinned,
                                   ChannelAlloc::Priority};
    Rng rng(77);
    for (std::uint32_t radix : {16u, 64u}) {
        for (std::uint32_t c : {1u, 2u, 4u}) {
            for (ChannelAlloc alloc : allocs) {
                SwitchSpec spec = hiriseSpec(c, ArbScheme::Clrg, radix);
                spec.alloc = alloc;
                SCOPED_TRACE("radix " + std::to_string(radix) + " c " +
                             std::to_string(c) + " alloc " +
                             toString(alloc));
                const std::uint32_t L = spec.layers;
                auto f = std::make_unique<HiRiseFabric>(spec);
                std::vector<std::uint64_t> ref(std::size_t(L) * L * c, 0);
                std::uint64_t calls = 0;
                std::vector<std::uint32_t> conn_out(radix, kNoRequest);
                std::vector<std::uint32_t> conn_left(radix, 0);

                auto account = [&](std::uint64_t n) {
                    for (std::uint32_t s = 0; s < L; ++s)
                        for (std::uint32_t d = 0; d < L; ++d)
                            for (std::uint32_t k = 0; k < c; ++k)
                                if (f->channelBusy(s, d, k))
                                    ref[(s * L + d) * c + k] += n;
                    calls += n;
                };
                auto releaseExpired = [&](std::uint64_t n) {
                    for (std::uint32_t i = 0; i < radix; ++i) {
                        if (conn_out[i] == kNoRequest)
                            continue;
                        if (conn_left[i] > n) {
                            conn_left[i] -= static_cast<std::uint32_t>(n);
                            continue;
                        }
                        f->release(i, conn_out[i]);
                        conn_out[i] = kNoRequest;
                    }
                };
                auto forget = [&](const std::vector<BrokenConn> &broken) {
                    for (const auto &b : broken) {
                        ASSERT_EQ(conn_out[b.input], b.output);
                        conn_out[b.input] = kNoRequest;
                    }
                };

                for (int step = 0; step < 400; ++step) {
                    const auto action = rng.below(100);
                    if (action < 55) {
                        std::vector<std::uint32_t> req(radix, kNoRequest);
                        for (std::uint32_t i = 0; i < radix; ++i)
                            if (conn_out[i] == kNoRequest &&
                                rng.bernoulli(0.3))
                                req[i] = static_cast<std::uint32_t>(
                                    rng.below(radix));
                        account(1);
                        const BitVec &g = f->arbitrate(req);
                        g.forEachSet([&](std::uint32_t i) {
                            conn_out[i] = req[i];
                            conn_left[i] = 1 + static_cast<std::uint32_t>(
                                                   rng.below(8));
                        });
                        releaseExpired(1);
                    } else if (action < 70) {
                        const std::uint64_t n = 1 + rng.below(20);
                        account(n);
                        f->advanceIdle(n);
                        releaseExpired(n);
                    } else if (action < 80) {
                        const auto s =
                            static_cast<std::uint32_t>(rng.below(L));
                        const auto d = static_cast<std::uint32_t>(
                            (s + 1 + rng.below(L - 1)) % L);
                        const auto k =
                            static_cast<std::uint32_t>(rng.below(c));
                        std::vector<BrokenConn> broken;
                        f->failChannel(s, d, k, &broken);
                        forget(broken);
                    } else if (action < 88) {
                        const auto s =
                            static_cast<std::uint32_t>(rng.below(L));
                        const auto d = static_cast<std::uint32_t>(
                            (s + 1 + rng.below(L - 1)) % L);
                        f->recoverChannel(
                            s, d, static_cast<std::uint32_t>(rng.below(c)));
                    } else if (action < 94) {
                        const auto i =
                            static_cast<std::uint32_t>(rng.below(radix));
                        if (conn_out[i] != kNoRequest) {
                            f->release(i, conn_out[i]);
                            conn_out[i] = kNoRequest;
                        }
                    } else {
                        const auto bytes = savedBytes(*f);
                        auto g = std::make_unique<HiRiseFabric>(spec);
                        snap::Reader r(bytes);
                        g->load(r);
                        ASSERT_TRUE(r.done());
                        ASSERT_EQ(savedBytes(*g), bytes) << "step " << step;
                        f = std::move(g);
                    }

                    const auto st = f->stats();
                    ASSERT_EQ(st.chanBusyCycles, ref) << "step " << step;
                    for (std::uint32_t s = 0; s < L; ++s)
                        for (std::uint32_t d = 0; d < L; ++d)
                            for (std::uint32_t k = 0; s != d && k < c; ++k)
                                ASSERT_EQ(f->channelUtilization(s, d, k),
                                          calls == 0
                                              ? 0.0
                                              : static_cast<double>(
                                                    ref[(s * L + d) * c +
                                                        k]) /
                                                    static_cast<double>(
                                                        calls))
                                    << "step " << step;
                }
            }
        }
    }
}

TEST(HiRise, FailedChannelRemapsBinnedTraffic)
{
    HiRiseFabric f(hiriseSpec(4));
    // Input 20 (layer 1, local 4) is binned to channel 0 for layer 3.
    EXPECT_EQ(f.channelFor(20, 63), 0u);
    f.failChannel(1, 3, 0);
    EXPECT_TRUE(f.channelFailed(1, 3, 0));
    EXPECT_EQ(f.channelFor(20, 63), 1u); // next surviving channel

    auto req = noRequests(64);
    req[20] = 63;
    EXPECT_TRUE(f.arbitrate(req)[20]);
    EXPECT_FALSE(f.channelBusy(1, 3, 0)); // dead channel stays idle
    EXPECT_TRUE(f.channelBusy(1, 3, 1));
}

TEST(HiRise, AllChannelsFailedBlocksThatLayerPairOnly)
{
    HiRiseFabric f(hiriseSpec(2));
    f.failChannel(1, 3, 0);
    f.failChannel(1, 3, 1);
    auto req = noRequests(64);
    req[20] = 63; // layer 1 -> layer 3: unreachable
    req[0] = 62;  // layer 0 -> layer 3: unaffected
    auto g = f.arbitrate(req);
    EXPECT_FALSE(g[20]);
    EXPECT_TRUE(g[0]);
}

TEST(HiRise, OutputBinnedRemapsAroundFailedChannel)
{
    auto s = hiriseSpec(4);
    s.alloc = ChannelAlloc::OutputBinned;
    HiRiseFabric f(s);
    // Output 63 (layer 3, local 15) bins to channel 15 % 4 == 3.
    EXPECT_EQ(f.channelFor(20, 63), 3u);
    f.failChannel(1, 3, 3);
    EXPECT_TRUE(f.channelFailed(1, 3, 3));
    EXPECT_FALSE(f.channelFailed(1, 3, 0));
    EXPECT_EQ(f.channelFor(20, 63), 0u); // probe wraps to channel 0

    auto req = noRequests(64);
    req[20] = 63;
    EXPECT_TRUE(f.arbitrate(req)[20]);
    EXPECT_TRUE(f.channelBusy(1, 3, 0));
    EXPECT_FALSE(f.channelBusy(1, 3, 3));
}

TEST(HiRise, FullyFailedLayerPairDegradesWithoutDeadlock)
{
    // Saturated closed-loop drive with every layer-1 -> layer-3
    // channel dead: the cut-off input never wins but never wedges the
    // fabric, and unaffected inputs keep winning every single cycle.
    HiRiseFabric f(hiriseSpec(2));
    f.failChannel(1, 3, 0);
    f.failChannel(1, 3, 1);

    std::vector<std::pair<std::uint32_t, std::uint32_t>> held;
    int blocked_grants = 0;
    int ok_grants = 0;
    for (int cycle = 0; cycle < 200; ++cycle) {
        for (auto [i, o] : held)
            f.release(i, o);
        held.clear();
        auto req = noRequests(64);
        req[20] = 63; // layer 1 -> layer 3: fully failed
        req[0] = 62;  // layer 0 -> layer 3: unaffected
        req[17] = 5;  // layer 1 -> layer 0: unaffected
        auto g = f.arbitrate(req);
        if (g[20]) {
            ++blocked_grants;
            held.push_back({20, 63});
        }
        if (g[0]) {
            ++ok_grants;
            held.push_back({0, 62});
        }
        if (g[17]) {
            ++ok_grants;
            held.push_back({17, 5});
        }
    }
    EXPECT_EQ(blocked_grants, 0);
    EXPECT_EQ(ok_grants, 400); // 2 unaffected inputs x 200 cycles
    EXPECT_FALSE(f.channelBusy(1, 3, 0));
    EXPECT_FALSE(f.channelBusy(1, 3, 1));
}

TEST(HiRise, FailingBusyChannelForciblyBreaksHolder)
{
    // Regression: failChannel on a channel held by an in-flight
    // multi-flit packet used to be a fatal error; now it forcibly
    // breaks the connection and reports the victim so the simulator
    // can drop the packet and let the input re-arbitrate.
    HiRiseFabric f(hiriseSpec(2));
    auto req = noRequests(64);
    req[20] = 63;
    ASSERT_TRUE(f.arbitrate(req)[20]); // holds channel (1,3,0)
    ASSERT_TRUE(f.channelBusy(1, 3, 0));
    ASSERT_TRUE(f.outputBusy(63));

    std::vector<BrokenConn> broken;
    f.failChannel(1, 3, 0, &broken);
    ASSERT_EQ(broken.size(), 1u);
    EXPECT_EQ(broken[0].input, 20u);
    EXPECT_EQ(broken[0].output, 63u);
    EXPECT_TRUE(f.channelFailed(1, 3, 0));
    EXPECT_FALSE(f.channelBusy(1, 3, 0));
    EXPECT_FALSE(f.outputBusy(63));

    // The freed input re-arbitrates straight onto the survivor.
    EXPECT_TRUE(f.arbitrate(req)[20]);
    EXPECT_TRUE(f.channelBusy(1, 3, 1));

    // Idempotent: re-failing reports no new victims.
    broken.clear();
    f.failChannel(1, 3, 0, &broken);
    EXPECT_TRUE(broken.empty());
}

TEST(HiRise, ZeroSurvivorPairAdvertisesZeroCapacity)
{
    // All channels of one layer pair down: the pair advertises zero
    // capacity, the rest of the fabric is unaffected, and recovery
    // restores capacity one channel at a time.
    HiRiseFabric f(hiriseSpec(2));
    const std::uint32_t healthy = 2u * 4 * 3; // c * L * (L-1)
    EXPECT_EQ(f.survivingChannels(1, 3), 2u);
    EXPECT_EQ(f.advertisedCapacity(), healthy);
    f.failChannel(1, 3, 0);
    f.failChannel(1, 3, 1);
    EXPECT_EQ(f.survivingChannels(1, 3), 0u);
    EXPECT_EQ(f.survivingChannels(3, 1), 2u);
    EXPECT_EQ(f.advertisedCapacity(), healthy - 2);
    f.recoverChannel(1, 3, 1);
    EXPECT_EQ(f.survivingChannels(1, 3), 1u);
    EXPECT_EQ(f.advertisedCapacity(), healthy - 1);
}

TEST(HiRiseDeath, FailChannelRejectsBadCoordinates)
{
    HiRiseFabric f(hiriseSpec(2));
    EXPECT_DEATH(f.failChannel(1, 1, 0), "bad channel");
    EXPECT_DEATH(f.failChannel(1, 3, 7), "bad channel");
}

TEST(HiRise, PriorityAllocSkipsFailedChannels)
{
    auto s = hiriseSpec(2, ArbScheme::Clrg);
    s.alloc = ChannelAlloc::Priority;
    HiRiseFabric f(s);
    f.failChannel(1, 3, 0);
    auto req = noRequests(64);
    req[16] = 48;
    req[18] = 49;
    auto g = f.arbitrate(req);
    // Only one surviving channel: exactly one wins.
    EXPECT_EQ((g[16] ? 1 : 0) + (g[18] ? 1 : 0), 1);
    EXPECT_FALSE(f.channelBusy(1, 3, 0));
}

TEST(HiRise, FaultedFabricStillFairUnderAdversarialPattern)
{
    HiRiseFabric f(hiriseSpec(4, ArbScheme::Clrg));
    f.failChannel(0, 3, 3); // input 15's bin channel
    auto wins = runPaperPattern(f, 500);
    for (auto i : {3u, 7u, 11u, 15u, 20u})
        EXPECT_NEAR(wins[i], 100, 8) << "input " << i;
}

TEST(HiRise, PriorityAllocUsesAnyFreeChannel)
{
    auto s = hiriseSpec(2, ArbScheme::Clrg);
    s.alloc = ChannelAlloc::Priority;
    HiRiseFabric f(s);
    // Two same-bin inputs to the same destination layer can both win
    // in one cycle under priority allocation (different channels).
    auto req = noRequests(64);
    req[16] = 48; // layer 1 -> layer 3
    req[18] = 49; // layer 1 -> layer 3 (same input bin for c=2)
    auto g = f.arbitrate(req);
    EXPECT_TRUE(g[16]);
    EXPECT_TRUE(g[18]);
    // With input binning they would conflict on channel 0.
    HiRiseFabric fb(hiriseSpec(2, ArbScheme::Clrg));
    auto gb = fb.arbitrate(req);
    EXPECT_EQ((gb[16] ? 1 : 0) + (gb[18] ? 1 : 0), 1);
}
