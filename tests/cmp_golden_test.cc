/**
 * @file
 * Golden-determinism regression for the closed-loop and routed
 * engines, in the style of sim_golden_test.cc: fixed-seed results of
 *  - CmpSystem on the central 2D and Hi-Rise (4-channel CLRG)
 *    switches and on the 4x4x4 flattened-butterfly GraphTransport,
 *    for Table VI mixes 1 and 8;
 *  - MsgSwitch alone under random traffic (its backlog average is
 *    not part of SystemResult);
 *  - GraphNoc on the 8x8 low-radix mesh and the flattened butterfly;
 *  - the kilo-core mesh of Hi-Rise and of flat routers on GraphNoc,
 *    including a non-square overloaded mesh and a second run() on one
 *    object (captured on the former MeshNoc engine).
 * Every double is compared with == (bit-exact); per-core CMP counters
 * are compared through their sums and an FNV-1a digest of the
 * (retired, misses, stallCycles) sequence, and the MsgSwitch delivery
 * order through a digest of (cycle, src, dst, txn) per delivery.
 *
 * Values captured from the std::deque-queued engines with
 * unordered_map tag tracking, before their step loops were made
 * allocation-free; doubles recorded with %.17g (round-trip exact).
 * A drift here means an engine change altered semantics, not just
 * speed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "cmp/graph_transport.hh"
#include "cmp/msg_switch.hh"
#include "cmp/system.hh"
#include "cmp/workload.hh"
#include "common/random.hh"
#include "harness/experiments.hh"
#include "noc/graph_noc.hh"

using namespace hirise;

namespace {

std::uint64_t
fnv1a(std::uint64_t v, std::uint64_t h)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// -- CmpSystem ---------------------------------------------------------

enum class Net { Central2d, CentralHiRise, Butterfly };

struct CmpOut
{
    double totalIpc;
    double avgMissLatencyNs;
    std::uint64_t networkMessages;
    std::uint64_t retired, misses, stalls; //!< sums over cores
    std::uint64_t coreDigest;
};

CmpOut
runCmp(Net net, std::size_t mix)
{
    cmp::SystemConfig cfg;
    cfg.seed = 11;
    auto per_core = cmp::assignMix(cmp::paperMixes()[mix], cfg.numTiles);
    std::unique_ptr<cmp::CmpSystem> sys;
    switch (net) {
      case Net::Central2d:
        cfg.switchFreqGhz = 1.69;
        sys = std::make_unique<cmp::CmpSystem>(harness::spec2d(), cfg,
                                               std::move(per_core));
        break;
      case Net::CentralHiRise:
        cfg.switchFreqGhz = 2.2;
        sys = std::make_unique<cmp::CmpSystem>(
            harness::specHiRise(4, ArbScheme::Clrg), cfg,
            std::move(per_core));
        break;
      case Net::Butterfly:
        cfg.switchFreqGhz = 2.0;
        sys = std::make_unique<cmp::CmpSystem>(
            [&](cmp::Transport::DeliverFn d) {
                return std::make_unique<cmp::GraphTransport>(
                    std::make_shared<noc::FlattenedButterfly>(4, 4, 4,
                                                              2.0),
                    std::move(d), 4, cfg.seed);
            },
            cfg, std::move(per_core));
        break;
    }
    cmp::SystemResult r = sys->run(1000, 5000);
    CmpOut o{r.totalIpc, r.avgMissLatencyNs, r.networkMessages,
             0,          0,                  0,
             kFnvBasis};
    for (const auto &c : r.cores) {
        o.retired += c.retired;
        o.misses += c.misses;
        o.stalls += c.stallCycles;
        o.coreDigest = fnv1a(c.retired, o.coreDigest);
        o.coreDigest = fnv1a(c.misses, o.coreDigest);
        o.coreDigest = fnv1a(c.stallCycles, o.coreDigest);
    }
    return o;
}

struct CmpGolden
{
    const char *label;
    Net net;
    std::size_t mix; //!< index into paperMixes()
    CmpOut want;
};

const CmpGolden kCmpGolden[] = {
    {"mix1_2d", Net::Central2d, 0,
     {109.8094, 59.080588493631971, 20553, 549047, 6807, 45428,
      8202049299167606337ULL}},
    {"mix8_2d", Net::Central2d, 7,
     {28.320599999999999, 180.31668153434433, 27821, 141603, 9028,
      249921, 10341572918901925706ULL}},
    {"mix1_hirise", Net::CentralHiRise, 0,
     {111.71699999999998, 55.32721367038554, 21499, 558585, 7096, 40651,
      12673730369871192722ULL}},
    {"mix8_hirise", Net::CentralHiRise, 7,
     {32.978200000000015, 153.17100619933237, 32465, 164891, 10520,
      238354, 9564512403562748388ULL}},
    {"mix1_fb", Net::Butterfly, 0,
     {109.74600000000001, 65.63544415127528, 20629, 548730, 6857, 45601,
      9935309922557389300ULL}},
    {"mix8_fb", Net::Butterfly, 7,
     {30.166, 174.63407438626066, 29258, 150830, 9448, 245261,
      12303324995670306961ULL}},
};

/** Print the label, so ctest names do not embed the parameter's
 *  bytes (whose first field is a pointer that differs per build). */
void
PrintTo(const CmpGolden &g, std::ostream *os)
{
    *os << g.label;
}

class CmpGoldenTest : public ::testing::TestWithParam<CmpGolden>
{
};

TEST_P(CmpGoldenTest, FixedSeedSystemIsBitIdentical)
{
    const CmpGolden &g = GetParam();
    CmpOut o = runCmp(g.net, g.mix);
    EXPECT_EQ(o.totalIpc, g.want.totalIpc);
    EXPECT_EQ(o.avgMissLatencyNs, g.want.avgMissLatencyNs);
    EXPECT_EQ(o.networkMessages, g.want.networkMessages);
    EXPECT_EQ(o.retired, g.want.retired);
    EXPECT_EQ(o.misses, g.want.misses);
    EXPECT_EQ(o.stalls, g.want.stalls);
    EXPECT_EQ(o.coreDigest, g.want.coreDigest);
}

INSTANTIATE_TEST_SUITE_P(
    Systems, CmpGoldenTest, ::testing::ValuesIn(kCmpGolden),
    [](const ::testing::TestParamInfo<CmpGolden> &info) {
        return info.param.label;
    });

// -- MsgSwitch alone ---------------------------------------------------

struct SwitchOut
{
    double avgBacklog;
    std::uint64_t flits;
    std::uint64_t messages;
    std::uint64_t deliveryDigest;
};

/** 3000 cycles of Bernoulli(0.15) per-tile sends of random type and
 *  destination, then a drain. */
SwitchOut
runSwitch(const SwitchSpec &spec)
{
    std::uint64_t cycle = 0;
    std::uint64_t digest = kFnvBasis;
    cmp::MsgSwitch sw(spec, 4, [&](const cmp::Message &m) {
        digest = fnv1a(cycle, digest);
        digest = fnv1a(m.srcTile, digest);
        digest = fnv1a(m.dstTile, digest);
        digest = fnv1a(m.txnId, digest);
    });
    Rng rng(29);
    std::uint32_t txn = 0;
    for (; cycle < 3000; ++cycle) {
        for (std::uint32_t t = 0; t < spec.radix; ++t) {
            if (!rng.bernoulli(0.15))
                continue;
            cmp::Message m;
            m.type = rng.bernoulli(0.5) ? cmp::MsgType::L2Request
                                        : cmp::MsgType::L2Response;
            m.srcTile = t;
            m.dstTile = static_cast<std::uint32_t>(
                rng.below(spec.radix - 1));
            if (m.dstTile >= t)
                ++m.dstTile;
            m.txnId = txn++;
            sw.send(m);
        }
        sw.step();
    }
    for (; sw.backlogMessages() > 0 && cycle < 20000; ++cycle)
        sw.step();
    return {sw.avgBacklog(), sw.flitsDelivered(), sw.messagesDelivered(),
            digest};
}

TEST(MsgSwitchGolden, FlatLrgRandomTrafficIsBitIdentical)
{
    SwitchOut o = runSwitch(harness::spec2d());
    EXPECT_EQ(o.avgBacklog, 70.209078860172298);
    EXPECT_EQ(o.flits, 71594u);
    EXPECT_EQ(o.messages, 28733u);
    EXPECT_EQ(o.deliveryDigest, 3397789611972928715ULL);
}

TEST(MsgSwitchGolden, HiRiseClrgRandomTrafficIsBitIdentical)
{
    SwitchOut o = runSwitch(harness::specHiRise(4, ArbScheme::Clrg));
    EXPECT_EQ(o.avgBacklog, 108.04514003294894);
    EXPECT_EQ(o.flits, 71594u);
    EXPECT_EQ(o.messages, 28733u);
    EXPECT_EQ(o.deliveryDigest, 18358006173814501962ULL);
}

// -- GraphNoc ------------------------------------------------------------

void
expectGraph(const noc::GraphResult &r, double offered, double accepted,
            double latency, double hops, double link_mm,
            std::uint64_t delivered)
{
    EXPECT_EQ(r.offeredPktsPerCycle, offered);
    EXPECT_EQ(r.acceptedPktsPerCycle, accepted);
    EXPECT_EQ(r.avgLatencyCycles, latency);
    EXPECT_EQ(r.avgRouterHops, hops);
    EXPECT_EQ(r.avgLinkMm, link_mm);
    EXPECT_EQ(r.delivered, delivered);
}

TEST(GraphNocGolden, LowRadixMeshIsBitIdentical)
{
    noc::GraphNoc g(std::make_shared<noc::LowRadixMesh>(8, 1, 1.0), 4, 4,
                    5);
    expectGraph(g.run(0.05, 500, 2000), 3.2029999999999998,
                3.1974999999999998, 38.317904612978701,
                6.289757623143081, 5.289757623143081, 6395);
}

TEST(GraphNocGolden, FlattenedButterflyIsBitIdentical)
{
    noc::GraphNoc g(
        std::make_shared<noc::FlattenedButterfly>(4, 4, 4, 2.0), 4, 4,
        5);
    expectGraph(g.run(0.05, 500, 2000), 3.2029999999999998,
                3.1964999999999999, 14.527295479430615,
                2.5166588456123975, 5.0283122164867757, 6393);
}

// -- Kilo-core mesh of switches on GraphNoc -----------------------------
//
// Captured on the former MeshNoc engine (a std::deque-queued copy of
// GraphNoc's step loop that scanned every router port each cycle);
// the test ids keep its name.

/** A @p width x @p height mesh of @p router switches. */
noc::GraphNoc
switchMesh(const SwitchSpec &router, std::uint32_t width,
           std::uint32_t height, std::uint64_t seed)
{
    return noc::GraphNoc(
        noc::LowRadixMesh::ofRouters(width, height, router), router, 4,
        4, seed);
}

/** The kilo-core study's 4x4 mesh (harness kiloCore). */
noc::GraphResult
runMesh(const SwitchSpec &router, std::uint64_t seed = 13)
{
    noc::GraphNoc mesh = switchMesh(router, 4, 4, seed);
    return mesh.run(0.015, 300, 1500);
}

void
expectMesh(const noc::GraphResult &r, double offered, double accepted,
           double latency, double hops, std::uint64_t delivered)
{
    EXPECT_EQ(r.offeredPktsPerCycle, offered);
    EXPECT_EQ(r.acceptedPktsPerCycle, accepted);
    EXPECT_EQ(r.avgLatencyCycles, latency);
    EXPECT_EQ(r.avgRouterHops, hops);
    EXPECT_EQ(r.delivered, delivered);
}

TEST(MeshNocGolden, HiRiseRoutersAreBitIdentical)
{
    expectMesh(runMesh(harness::specHiRise(4, ArbScheme::Clrg)),
               11.422666666666666, 10.355333333333334,
               92.898860490568225, 3.4549668447820934, 15533);
}

TEST(MeshNocGolden, FlatRoutersAreBitIdentical)
{
    SwitchSpec flat = harness::spec2d(52); // 48 local + 4 mesh ports
    expectMesh(runMesh(flat), 11.422666666666666, 2.258,
               584.26896958960845, 3.2722173014467066, 3387);
}

TEST(MeshNocGolden, NonSquareHiRiseOverloadIsBitIdentical)
{
    // 3x2: corner and edge routers with unused mesh ports, every
    // downstream FIFO out of credit, and the adaptive layer choice
    // deciding among partly full parallel links.
    noc::GraphNoc mesh =
        switchMesh(harness::specHiRise(4, ArbScheme::Clrg), 3, 2, 17);
    expectMesh(mesh.run(0.5, 200, 800), 144.61625000000001,
               5.0599999999999996, 551.89204545454561,
               2.2272727272727337, 4048);
}

TEST(MeshNocGolden, SecondRunAccumulatesBitIdentically)
{
    // Offered load, latency and hop statistics are cumulative over
    // run() calls on one object; the second run starts from the
    // first one's backlog.
    noc::GraphNoc mesh =
        switchMesh(harness::specHiRise(4, ArbScheme::Clrg), 3, 3, 21);
    expectMesh(mesh.run(0.05, 300, 600), 21.594999999999999,
               7.3449999999999998, 188.93964147946431,
               2.6047197640118043, 4407);
    expectMesh(mesh.run(0.05, 0, 600), 43.106666666666669,
               7.2883333333333331, 280.44248291571699,
               2.6109339407744847, 8780);
}

TEST(MeshNocGolden, FlatRoutersAtAnotherSeedAreBitIdentical)
{
    expectMesh(runMesh(harness::spec2d(52), 29), 11.549333333333333,
               2.3086666666666669, 605.83800173260113,
               3.2203291943401768, 3463);
}

} // namespace
