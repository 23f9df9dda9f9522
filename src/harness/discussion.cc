/**
 * @file
 * Discussion-section comparison (paper VI-E): Hi-Rise and the flat 2D
 * Swizzle-Switch versus the low-radix mesh and flattened-butterfly
 * networks, on a 64-core chip. Energy uses the floorplan model
 * (phys/floorplan.hh); hop counts and link lengths are measured by
 * cycle simulation of each topology.
 */

#include "harness/experiments.hh"

#include <cmath>

#include "cmp/graph_transport.hh"
#include "cmp/system.hh"
#include "common/parallel.hh"
#include "noc/graph_noc.hh"
#include "phys/floorplan.hh"

namespace hirise::harness {

Table
discussion(const ExperimentOptions &opt)
{
    Table t("Section VI-E discussion: 64-core network comparison "
            "(energy per 128-bit flit end-to-end; paper quotes: 2D "
            "Swizzle 33% better than mesh, 28% better than FB; "
            "Hi-Rise 38% better than 2D, ~58% better than FB)");
    t.header({"Network", "Routers", "Avg hops", "Avg link mm",
              "pJ/flit", "Latency (ns, low load)"});

    phys::SystemEnergyModel energy;
    net::Cycle warm = opt.quick ? 1000 : 4000;
    net::Cycle meas = opt.quick ? 5000 : 20000;
    const double core_ghz = 2.0; // low-radix routers run at core clock

    // -- routed baselines ---------------------------------------------
    // 8x8 mesh of 5-port routers, 1 mm hops (1 mm^2 tiles).
    auto mesh = std::make_shared<noc::LowRadixMesh>(8, 1, 1.0);
    // 4x4 flattened butterfly, concentration 4, 2 mm tile groups.
    auto fb = std::make_shared<noc::FlattenedButterfly>(4, 4, 4, 2.0);

    SwitchSpec mesh_router;
    mesh_router.topo = Topology::Flat2D;
    mesh_router.radix = mesh->radix();
    mesh_router.arb = ArbScheme::Lrg;

    SwitchSpec fb_router = mesh_router;
    fb_router.radix = fb->radix();

    auto routed = [&](std::shared_ptr<noc::Topology> topo,
                      const SwitchSpec &router, const char *label) {
        noc::GraphNoc sim(topo, 4, 4, opt.seed);
        auto r = sim.run(0.02, warm, meas); // well below saturation
        double pj = energy.routedPjPerFlit(router, r.avgRouterHops,
                                           r.avgLinkMm,
                                           topo->concentration());
        t.row({label,
               Table::integer(topo->numRouters()),
               Table::num(r.avgRouterHops, 2),
               Table::num(r.avgLinkMm, 2), Table::num(pj, 0),
               Table::num(r.avgLatencyCycles / core_ghz, 2)});
        return pj;
    };
    double pj_mesh = routed(mesh, mesh_router, "low-radix mesh 8x8");
    double pj_fb = routed(fb, fb_router, "flattened butterfly 4x4");

    // -- centralized switches -----------------------------------------
    auto central = [&](const SwitchSpec &spec, const char *label) {
        double pj = energy.centralPjPerFlit(spec);
        auto rep = energy.physModel().evaluate(spec);
        auto r = sim::runAtLoad(
            spec, opt.simConfig(),
            [radix = spec.radix] {
                return std::make_shared<traffic::UniformRandom>(radix);
            },
            0.02);
        t.row({label, "1", "1.00", "-", Table::num(pj, 0),
               Table::num(r.avgLatencyCycles / rep.freqGhz, 2)});
        return pj;
    };
    double pj_2d = central(spec2d(), "central 2D Swizzle-Switch");
    double pj_hr = central(specHiRise(4, ArbScheme::Clrg),
                           "central Hi-Rise (CLRG)");

    t.row({"", "", "", "", "", ""});
    auto pct = [](double better, double worse) {
        return Table::num(100.0 * (1.0 - better / worse), 0) + "%";
    };
    t.row({"2D vs mesh (paper 33%)", "", "", "",
           pct(pj_2d, pj_mesh), ""});
    t.row({"2D vs FB (paper 28%)", "", "", "", pct(pj_2d, pj_fb),
           ""});
    t.row({"Hi-Rise vs 2D (paper 38%)", "", "", "",
           pct(pj_hr, pj_2d), ""});
    t.row({"Hi-Rise vs FB (paper ~58%)", "", "", "",
           pct(pj_hr, pj_fb), ""});
    return t;
}

Table
discussionSpeedup(const ExperimentOptions &opt)
{
    Table t("Section VI-E discussion: 64-core system speedup of "
            "Hi-Rise (CLRG) over a flattened-butterfly interconnect "
            "(paper quote: ~13%)");
    t.header({"Mix", "IPC FB", "IPC Hi-Rise", "Speedup"});

    phys::PhysModel model;
    const double hr_ghz =
        model.evaluate(specHiRise(4, ArbScheme::Clrg)).freqGhz;
    std::uint64_t warmup = opt.quick ? 5000 : 20000;
    std::uint64_t cycles = opt.quick ? 30000 : 120000;

    auto run_central = [&](const cmp::Mix &mix) {
        cmp::SystemConfig cfg;
        cfg.switchFreqGhz = hr_ghz;
        cfg.seed = opt.seed;
        cmp::CmpSystem sys(specHiRise(4, ArbScheme::Clrg), cfg,
                           cmp::assignMix(mix, cfg.numTiles));
        return sys.run(warmup, cycles).totalIpc;
    };
    auto run_fb = [&](const cmp::Mix &mix) {
        cmp::SystemConfig cfg;
        cfg.switchFreqGhz = 2.0; // FB routers run at the core clock
        cfg.seed = opt.seed;
        cmp::CmpSystem::TransportFactory make =
            [&](cmp::Transport::DeliverFn deliver) {
                return std::make_unique<cmp::GraphTransport>(
                    std::make_shared<noc::FlattenedButterfly>(4, 4, 4,
                                                              2.0),
                    std::move(deliver), 4, opt.seed);
            };
        cmp::CmpSystem sys(make, cfg,
                           cmp::assignMix(mix, cfg.numTiles));
        return sys.run(warmup, cycles).totalIpc;
    };

    // One task per (mix, network) system simulation.
    const auto &mixes = cmp::paperMixes();
    struct Cell
    {
        std::size_t mix;
        bool hirise;
    };
    std::vector<Cell> cells;
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        cells.push_back({i, false});
        cells.push_back({i, true});
    }
    auto ipcs = parallelMap(cells, [&](const Cell &c) {
        return c.hirise ? run_central(mixes[c.mix]) : run_fb(mixes[c.mix]);
    });

    double geo = 1.0;
    int n = 0;
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        // The network-bound upper mixes carry the paper's claim.
        double fb = ipcs[2 * i];
        double hr = ipcs[2 * i + 1];
        t.row({mixes[i].name, Table::num(fb, 1), Table::num(hr, 1),
               Table::num(hr / fb, 2)});
        geo *= hr / fb;
        ++n;
    }
    t.row({"geomean", "", "",
           Table::num(std::pow(geo, 1.0 / n), 2)});
    return t;
}

} // namespace hirise::harness
