/**
 * @file
 * Tests for the kilo-core mesh-of-switches NoC (paper section VI-E),
 * a LowRadixMesh of multi-layer routers stepped by GraphNoc: address
 * arithmetic, XY routing, virtual cut-through hand-off, and
 * end-to-end behaviour with both Hi-Rise and flat 2D routers; and the
 * lockstep referee that runs every GraphNoc router against the oracle
 * fabric.
 */

#include <gtest/gtest.h>

#include <vector>

#include "check/lockstep.hh"
#include "noc/graph_noc.hh"

using namespace hirise;
using namespace hirise::noc;

namespace {

SwitchSpec
hiriseRouter(std::uint32_t radix = 64)
{
    SwitchSpec s;
    s.topo = hirise::Topology::HiRise;
    s.radix = radix;
    s.layers = 4;
    s.channels = 4;
    s.arb = ArbScheme::Clrg;
    return s;
}

SwitchSpec
flatRouter()
{
    SwitchSpec s;
    s.topo = hirise::Topology::Flat2D;
    s.radix = 52; // 48 local + 4 mesh ports, like Hi-Rise
    s.arb = ArbScheme::Lrg;
    return s;
}

GraphNoc
hiriseMesh(std::uint32_t w = 2, std::uint32_t h = 2)
{
    return GraphNoc(LowRadixMesh::ofRouters(w, h, hiriseRouter()),
                    hiriseRouter());
}

GraphNoc
flatMesh(std::uint32_t w = 2, std::uint32_t h = 2)
{
    return GraphNoc(LowRadixMesh::ofRouters(w, h, flatRouter()),
                    flatRouter());
}

} // namespace

TEST(MeshConfig, NodeAccounting)
{
    auto hr = LowRadixMesh::ofRouters(4, 4, hiriseRouter());
    EXPECT_EQ(hr->radix(), 64u);
    EXPECT_EQ(hr->layers(), 4u);
    EXPECT_EQ(hr->portsPerLayer(), 16u);
    EXPECT_EQ(hr->concentration(), 48u);
    EXPECT_EQ(hr->numNodes(), 768u); // kilo-core scale

    auto flat = LowRadixMesh::ofRouters(4, 4, flatRouter());
    EXPECT_EQ(flat->layers(), 1u);
    EXPECT_EQ(flat->concentration(), 48u);
    EXPECT_EQ(flat->numNodes(), 768u);
}

TEST(MeshConfig, ValidationRejectsBadShapes)
{
    EXPECT_DEATH(LowRadixMesh::ofRouters(1, 2, hiriseRouter()), "2x2");
    SwitchSpec router = hiriseRouter(20); // 5 ports/layer: 1 local slot
    router.channels = 1;
    EXPECT_EQ(LowRadixMesh::ofRouters(2, 2, router)->concentration(),
              4u);
    router.radix = 16; // 4 ports/layer: no local slots
    EXPECT_DEATH(LowRadixMesh::ofRouters(2, 2, router),
                 "ports per layer");
    EXPECT_DEATH(GraphNoc(LowRadixMesh::ofRouters(2, 2, flatRouter()),
                          hiriseRouter()),
                 "does not match");
}

TEST(MeshNoc, AddressRoundTrip)
{
    // Node ids run router by router, then layer by layer; each layer's
    // node ports open its [12 local, N, E, S, W] port block.
    auto mesh = LowRadixMesh::ofRouters(3, 2, hiriseRouter());
    for (std::uint32_t n = 0; n < mesh->numNodes(); n += 7) {
        PortRef at = mesh->attach(n);
        ASSERT_TRUE(at.valid);
        std::uint32_t layer = at.port / 16, slot = at.port % 16;
        EXPECT_LT(at.router, 6u);
        EXPECT_LT(layer, 4u);
        EXPECT_LT(slot, 12u);
        EXPECT_EQ(at.router * 48 + layer * 12 + slot, n);
        EXPECT_FALSE(mesh->link(at.router, at.port).valid);
    }
}

TEST(MeshNoc, PortMapping)
{
    auto mesh = LowRadixMesh::ofRouters(2, 2, hiriseRouter());
    // Local node ports precede the mesh ports within each layer.
    EXPECT_EQ(mesh->attach(2 * 12 + 5).port, 2u * 16 + 5);
    EXPECT_EQ(mesh->meshPort(LowRadixMesh::East, 3), 3u * 16 + 12 + 1);

    // Router 2 sits at (0, 1); its layer-0 North port (12) feeds the
    // layer-0 South port of router 0, and its layer-3 West port is an
    // unused edge port.
    PortRef far = mesh->link(2, 12);
    ASSERT_TRUE(far.valid);
    EXPECT_EQ(far.router, 0u);
    EXPECT_EQ(far.port, mesh->meshPort(LowRadixMesh::South, 0));
    EXPECT_FALSE(mesh->link(2, mesh->meshPort(LowRadixMesh::West, 3))
                     .valid);
    EXPECT_FALSE(mesh->link(2, 5).valid); // node port
}

TEST(MeshNoc, XyRoutingIsDimensionOrdered)
{
    LowRadixMesh::Direction d;
    EXPECT_TRUE(LowRadixMesh::xyRoute(0, 0, 2, 2, d));
    EXPECT_EQ(d, LowRadixMesh::East); // X before Y
    EXPECT_TRUE(LowRadixMesh::xyRoute(2, 0, 2, 2, d));
    EXPECT_EQ(d, LowRadixMesh::South);
    EXPECT_TRUE(LowRadixMesh::xyRoute(2, 3, 2, 2, d));
    EXPECT_EQ(d, LowRadixMesh::North);
    EXPECT_TRUE(LowRadixMesh::xyRoute(3, 1, 2, 1, d));
    EXPECT_EQ(d, LowRadixMesh::West);
    EXPECT_FALSE(LowRadixMesh::xyRoute(2, 2, 2, 2, d));
}

TEST(MeshNoc, LowLoadDeliversEverything)
{
    GraphNoc mesh = hiriseMesh();
    auto r = mesh.run(0.002, 2000, 6000);
    EXPECT_GT(r.delivered, 100u);
    // Accepted tracks offered well below saturation.
    EXPECT_NEAR(r.acceptedPktsPerCycle, r.offeredPktsPerCycle,
                0.1 * r.offeredPktsPerCycle);
    // 2x2 mesh: at most 2 hops + ejection.
    EXPECT_GE(r.avgRouterHops, 1.0);
    EXPECT_LE(r.avgRouterHops, 3.0);
}

TEST(MeshNoc, LatencyGrowsWithLoad)
{
    GraphNoc lo = hiriseMesh();
    GraphNoc hi = hiriseMesh();
    auto rlo = lo.run(0.001, 1000, 5000);
    auto rhi = hi.run(0.02, 1000, 5000);
    EXPECT_GT(rhi.avgLatencyCycles, rlo.avgLatencyCycles);
}

TEST(MeshNoc, LargerMeshMoreHops)
{
    GraphNoc small = hiriseMesh(2, 2);
    GraphNoc large = hiriseMesh(4, 4);
    auto rs = small.run(0.001, 1000, 5000);
    auto rl = large.run(0.001, 1000, 5000);
    EXPECT_GT(rl.avgRouterHops, rs.avgRouterHops);
}

TEST(MeshNoc, FlatRoutersWorkToo)
{
    GraphNoc mesh = flatMesh();
    auto r = mesh.run(0.002, 2000, 6000);
    EXPECT_GT(r.delivered, 100u);
    EXPECT_NEAR(r.acceptedPktsPerCycle, r.offeredPktsPerCycle,
                0.1 * r.offeredPktsPerCycle);
}

TEST(MeshNoc, HiRiseMeshOutperformsFlatMeshPerCycleAtHighLoad)
{
    // The 3D routers expose one mesh port per layer per direction
    // (4x the inter-router bandwidth at equal concentration), so the
    // Hi-Rise mesh saturates at a higher accepted rate.
    GraphNoc hr = hiriseMesh();
    GraphNoc flat = flatMesh();
    auto rh = hr.run(0.05, 2000, 8000);
    auto rf = flat.run(0.05, 2000, 8000);
    EXPECT_GT(rh.acceptedPktsPerCycle, rf.acceptedPktsPerCycle);
}

TEST(MeshNoc, NoDeadlockUnderSustainedOverload)
{
    // Drive far past saturation and make sure packets keep flowing
    // (XY + virtual cut-through must stay deadlock-free).
    GraphNoc mesh = hiriseMesh(3, 3);
    auto r1 = mesh.run(0.5, 3000, 3000);
    auto r2 = mesh.run(0.5, 0, 3000);
    EXPECT_GT(r1.acceptedPktsPerCycle, 0.0);
    EXPECT_GT(r2.acceptedPktsPerCycle,
              0.5 * r1.acceptedPktsPerCycle);
}

// ---------------------------------------------------------------------
// Lockstep referee: every router a check::LockstepFabric
// ---------------------------------------------------------------------

namespace {

/** Run @p topo twice, on plain router fabrics and with every router a
 *  LockstepFabric, and check the oracle never disagreed and the
 *  results are bit-identical. */
void
expectLockstepAgrees(std::shared_ptr<noc::Topology> topo,
                     const SwitchSpec &router, GraphResult plain,
                     double rate, net::Cycle warmup, net::Cycle measure,
                     std::uint64_t seed)
{
    std::vector<check::LockstepFabric *> locks;
    GraphNoc checked(topo, router, 4, 4, seed,
                     [&](const SwitchSpec &spec) {
                         auto f =
                             std::make_unique<check::LockstepFabric>(spec);
                         locks.push_back(f.get());
                         return f;
                     });
    GraphResult r = checked.run(rate, warmup, measure);

    ASSERT_EQ(locks.size(), topo->numRouters());
    for (std::size_t i = 0; i < locks.size(); ++i) {
        EXPECT_FALSE(locks[i]->mismatched())
            << "router " << i << ": " << locks[i]->mismatchDetail();
    }
    EXPECT_GT(r.delivered, 0u);
    EXPECT_EQ(r.offeredPktsPerCycle, plain.offeredPktsPerCycle);
    EXPECT_EQ(r.acceptedPktsPerCycle, plain.acceptedPktsPerCycle);
    EXPECT_EQ(r.avgLatencyCycles, plain.avgLatencyCycles);
    EXPECT_EQ(r.avgRouterHops, plain.avgRouterHops);
    EXPECT_EQ(r.avgLinkMm, plain.avgLinkMm);
    EXPECT_EQ(r.delivered, plain.delivered);
}

} // namespace

TEST(GraphNocLockstep, FlattenedButterflyAgreesWithOracle)
{
    // The 4-argument constructor's default routers: flat LRG crossbars
    // of the topology's radix.
    auto topo = std::make_shared<FlattenedButterfly>(4, 4, 4, 2.0);
    SwitchSpec flat;
    flat.topo = hirise::Topology::Flat2D;
    flat.radix = topo->radix();
    flat.arb = ArbScheme::Lrg;
    GraphNoc plain(topo, 4, 4, 5);
    expectLockstepAgrees(topo, flat, plain.run(0.05, 500, 2000), 0.05,
                         500, 2000, 5);
}

TEST(GraphNocLockstep, KiloCoreHiRiseMeshAgreesWithOracle)
{
    // The kilo-core study's 4x4 mesh of Hi-Rise CLRG routers.
    auto topo = LowRadixMesh::ofRouters(4, 4, hiriseRouter());
    GraphNoc plain(topo, hiriseRouter(), 4, 4, 13);
    expectLockstepAgrees(topo, hiriseRouter(),
                         plain.run(0.015, 300, 1500), 0.015, 300, 1500,
                         13);
}
