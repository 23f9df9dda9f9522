/**
 * @file
 * Section VI-E demonstration: compose Hi-Rise switches into a 2D mesh
 * NoC for kilo-core 3D chips (paper Fig 13) and compare against a
 * mesh of flat 2D routers at equal concentration. XY routing between
 * routers, adaptive Z (layer) routing inside each 3D switch.
 *
 *   ./examples/kilocore_mesh [width] [height] [load_pkts_per_node_ns]
 */

#include <cstdio>
#include <cstdlib>

#include "noc/graph_noc.hh"
#include "phys/model.hh"

int
main(int argc, char **argv)
{
    using namespace hirise;

    std::uint32_t w = argc > 1 ? std::atoi(argv[1]) : 4;
    std::uint32_t h = argc > 2 ? std::atoi(argv[2]) : 4;
    double load_pns = argc > 3 ? std::atof(argv[3]) : 0.02;

    SwitchSpec hr;
    hr.topo = Topology::HiRise;
    hr.radix = 64;
    hr.layers = 4;
    hr.channels = 4;
    hr.arb = ArbScheme::Clrg;

    SwitchSpec flat;
    flat.topo = Topology::Flat2D;
    flat.radix = 52; // 48 local + 4 mesh ports per router
    flat.arb = ArbScheme::Lrg;

    phys::PhysModel model;
    double f_hr = model.evaluate(hr).freqGhz;
    double f_2d = model.evaluate(flat).freqGhz;

    auto hr_mesh = noc::LowRadixMesh::ofRouters(w, h, hr);
    std::printf("mesh %ux%u, %u nodes/router, %u nodes total, "
                "uniform random @ %.3f packets/node/ns\n\n",
                w, h, hr_mesh->concentration(), hr_mesh->numNodes(),
                load_pns);

    auto report = [&](const char *label, const SwitchSpec &router,
                      double freq) {
        noc::GraphNoc mesh(noc::LowRadixMesh::ofRouters(w, h, router),
                           router);
        auto r = mesh.run(load_pns / freq, 4000, 16000);
        bool sat =
            r.acceptedPktsPerCycle < 0.95 * r.offeredPktsPerCycle;
        char lat[32];
        if (sat)
            std::snprintf(lat, sizeof(lat), "(saturated)");
        else
            std::snprintf(lat, sizeof(lat), "%.2f ns",
                          r.avgLatencyCycles / freq);
        std::printf("%-24s %.2f GHz  lat %-12s accepted %.1f "
                    "packets/ns  avg %.2f hops\n",
                    label, freq, lat, r.acceptedPktsPerCycle * freq,
                    r.avgRouterHops);
    };

    report("mesh of Hi-Rise (3D)", hr, f_hr);
    report("mesh of 2D routers", flat, f_2d);

    std::printf("\nThe Hi-Rise routers expose one mesh port per "
                "layer per direction\n(4x inter-router links) and "
                "run faster, so the 3D mesh sustains a\nmuch higher "
                "load - the scaling path section VI-E sketches for\n"
                "kilo-core systems.\n");
    return 0;
}
