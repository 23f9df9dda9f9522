/**
 * @file
 * Property-based sweeps of the network simulator across switch
 * configurations and traffic patterns: conservation, throughput
 * bounds, latency floors, and fairness invariants that must hold for
 * ANY configuration.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/network_sim.hh"
#include "sim/sweep.hh"
#include "traffic/pattern.hh"

using namespace hirise;
using namespace hirise::sim;

namespace {

struct Config
{
    std::string label;
    SwitchSpec spec;
    std::string pattern; // "uniform", "hotspot", "bursty", "transpose"
    double load;
};

// Without this gtest prints Config as a byte dump that starts with the
// label's heap pointer, and ctest's discovered test name (which carries
// that dump) would change on every build.
void
PrintTo(const Config &c, std::ostream *os)
{
    *os << c.label;
}

SwitchSpec
mk(Topology topo, std::uint32_t radix, std::uint32_t layers,
   std::uint32_t channels, ArbScheme arb,
   ChannelAlloc alloc = ChannelAlloc::InputBinned)
{
    SwitchSpec s;
    s.topo = topo;
    s.radix = radix;
    s.layers = layers;
    s.channels = channels;
    s.arb = arb;
    s.alloc = alloc;
    return s;
}

std::shared_ptr<traffic::TrafficPattern>
makePattern(const std::string &name, std::uint32_t radix)
{
    if (name == "uniform")
        return std::make_shared<traffic::UniformRandom>(radix);
    if (name == "hotspot")
        return std::make_shared<traffic::Hotspot>(radix, radix - 1);
    if (name == "bursty")
        return std::make_shared<traffic::Bursty>(radix, 8.0);
    if (name == "transpose")
        return std::make_shared<traffic::Transpose>(radix);
    return std::make_shared<traffic::BitComplement>(radix);
}

class SimProperty : public ::testing::TestWithParam<Config>
{
};

} // namespace

TEST_P(SimProperty, UniversalInvariants)
{
    const Config &p = GetParam();
    SimConfig cfg;
    cfg.injectionRate = p.load;
    cfg.warmupCycles = 1500;
    cfg.measureCycles = 6000;

    NetworkSim sim(p.spec, cfg, makePattern(p.pattern, p.spec.radix));
    auto r = sim.run();

    // Conservation: every injected flit is delivered or queued.
    EXPECT_EQ(sim.totalInjectedPackets() * cfg.packetLen,
              sim.totalDeliveredFlits() + sim.backlogFlits());

    // Accepted rate can never exceed offered nor physical capacity.
    EXPECT_LE(r.acceptedFlitsPerCycle,
              r.offeredFlitsPerCycle + 1e-9);
    double cap = p.spec.radix * cfg.packetLen /
                 double(cfg.packetLen + 1);
    EXPECT_LE(r.acceptedFlitsPerCycle, cap + 1e-9);

    // Latency floor: a packet needs at least packetLen cycles.
    if (r.packetsDelivered > 0) {
        EXPECT_GE(r.avgLatencyCycles, cfg.packetLen);
    }

    // Per-input throughput must sum to the aggregate, up to the
    // window-edge effect (packets whose flits straddle the window).
    double sum = 0.0;
    for (double v : r.perInputThroughput)
        sum += v;
    double edge = double(p.spec.radix) * cfg.packetLen /
                  double(cfg.measureCycles);
    EXPECT_NEAR(sum * cfg.packetLen, r.acceptedFlitsPerCycle, edge);

    // Jain index lies in [1/n, 1].
    EXPECT_GE(r.fairness, 1.0 / p.spec.radix - 1e-9);
    EXPECT_LE(r.fairness, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimProperty,
    ::testing::Values(
        Config{"flat16_uni",
               mk(Topology::Flat2D, 16, 1, 1, ArbScheme::Lrg),
               "uniform", 0.15},
        Config{"flat64_hot",
               mk(Topology::Flat2D, 64, 1, 1, ArbScheme::Lrg),
               "hotspot", 0.3},
        Config{"folded_uni",
               mk(Topology::Folded3D, 64, 4, 1, ArbScheme::Lrg),
               "uniform", 0.2},
        Config{"h4c4_uni",
               mk(Topology::HiRise, 64, 4, 4, ArbScheme::Clrg),
               "uniform", 0.2},
        Config{"h4c4_hot",
               mk(Topology::HiRise, 64, 4, 4, ArbScheme::Clrg),
               "hotspot", 0.3},
        Config{"h4c1_burst",
               mk(Topology::HiRise, 64, 4, 1, ArbScheme::LayerLrg),
               "bursty", 0.1},
        Config{"h4c2_trans",
               mk(Topology::HiRise, 64, 4, 2, ArbScheme::Wlrg),
               "transpose", 0.15},
        Config{"l3r48_uni",
               mk(Topology::HiRise, 48, 3, 4, ArbScheme::Clrg),
               "uniform", 0.25},
        Config{"l7r64_uni",
               mk(Topology::HiRise, 64, 7, 2, ArbScheme::Clrg),
               "uniform", 0.2},
        Config{"l2r32_bitc",
               mk(Topology::HiRise, 32, 2, 2, ArbScheme::Clrg),
               "bitcomp", 0.15},
        Config{"outbin_hot",
               mk(Topology::HiRise, 64, 4, 4, ArbScheme::Clrg,
                  ChannelAlloc::OutputBinned),
               "hotspot", 0.3},
        Config{"prio_uni",
               mk(Topology::HiRise, 64, 4, 4, ArbScheme::Clrg,
                  ChannelAlloc::Priority),
               "uniform", 0.25},
        Config{"overload_uni",
               mk(Topology::HiRise, 64, 4, 4, ArbScheme::Clrg),
               "uniform", 1.0},
        Config{"tiny_r8",
               mk(Topology::HiRise, 8, 2, 1, ArbScheme::Clrg),
               "uniform", 0.2}),
    [](const ::testing::TestParamInfo<Config> &info) {
        return info.param.label;
    });

// ---------------------------------------------------------------------
// Fairness property: under single-output contention, CLRG gives each
// persistent requester an equal share no matter how the requesters
// spread over the layers — the defining property of the scheme.
// ---------------------------------------------------------------------

namespace {

struct FairCase
{
    std::string label;
    std::vector<std::uint32_t> sources;
};

class ClrgFairness : public ::testing::TestWithParam<FairCase>
{
};

} // namespace

TEST_P(ClrgFairness, EqualSharesForArbitraryLayerSpread)
{
    auto spec = mk(Topology::HiRise, 64, 4, 4, ArbScheme::Clrg);
    SimConfig cfg;
    cfg.injectionRate = 0.2; // past one output's capacity
    cfg.warmupCycles = 3000;
    cfg.measureCycles = 20000;

    auto sources = GetParam().sources;
    NetworkSim sim(spec, cfg,
                   std::make_shared<traffic::Adversarial>(sources, 63,
                                                          64));
    auto r = sim.run();

    double mean = 0.0;
    for (auto s : sources)
        mean += r.perInputThroughput[s];
    mean /= sources.size();
    ASSERT_GT(mean, 0.0);
    for (auto s : sources) {
        EXPECT_NEAR(r.perInputThroughput[s], mean, 0.15 * mean)
            << "source " << s << " in " << GetParam().label;
    }
}

INSTANTIATE_TEST_SUITE_P(
    LayerSpreads, ClrgFairness,
    ::testing::Values(
        FairCase{"paper", {3, 7, 11, 15, 20}},
        FairCase{"one_per_layer", {0, 16, 32, 48}},
        FairCase{"all_local", {48, 49, 50, 51, 52}},
        FairCase{"skew_8_vs_1", {0, 1, 2, 3, 4, 5, 6, 7, 16}},
        FairCase{"two_layers", {0, 4, 16, 20, 24}},
        FairCase{"dst_layer_heavy", {48, 52, 56, 60, 0}}),
    [](const ::testing::TestParamInfo<FairCase> &info) {
        return info.param.label;
    });
