/**
 * @file
 * Section VI-E study: a kilo-core-scale 2D mesh of 3D Hi-Rise
 * switches (Fig 13) versus a mesh of flat 2D Swizzle-Switch routers
 * at equal concentration (48 nodes/router, 768 nodes total on a 4x4
 * mesh). XY dimension-ordered routing between routers; the Hi-Rise
 * routers additionally provide adaptive Z (layer) routing and one
 * mesh port per layer per direction.
 */

#include "harness/experiments.hh"

#include "common/parallel.hh"
#include "noc/graph_noc.hh"
#include "phys/model.hh"

namespace hirise::harness {

Table
kiloCore(const ExperimentOptions &opt)
{
    Table t("Section VI-E: 4x4 mesh of switches, 768 nodes, uniform "
            "random (latency ns / accepted packets-per-ns; 'sat' = "
            "offered load not sustained)");
    t.header({"Load(p/node/ns)", "HiRise-mesh lat", "HiRise-mesh "
              "acc", "2D-mesh lat", "2D-mesh acc"});

    const SwitchSpec hr = specHiRise(4, ArbScheme::Clrg);
    const SwitchSpec flat = spec2d(52); // 48 local + 4 mesh ports

    phys::PhysModel model;
    double f_hr = model.evaluate(hr).freqGhz;
    double f_flat = model.evaluate(flat).freqGhz;

    net::Cycle warm = opt.quick ? 1000 : 4000;
    net::Cycle meas = opt.quick ? 4000 : 16000;

    auto cell = [](const noc::GraphResult &r, double f,
                   std::vector<std::string> &row) {
        bool sat = r.acceptedPktsPerCycle <
                   0.95 * r.offeredPktsPerCycle;
        row.push_back(sat ? "sat"
                          : Table::num(r.avgLatencyCycles / f, 2));
        row.push_back(Table::num(r.acceptedPktsPerCycle * f, 1));
    };

    // Both mesh simulations of every load point fan out through the
    // campaign pool; rows assemble in load order afterwards.
    struct Cell
    {
        double loadPns;
        bool hirise;
    };
    std::vector<Cell> cells;
    for (double load_pns = 0.005; load_pns <= 0.0551;
         load_pns += 0.005) {
        cells.push_back({load_pns, true});
        cells.push_back({load_pns, false});
    }
    auto results = parallelMap(cells, [&](const Cell &c) {
        const SwitchSpec &router = c.hirise ? hr : flat;
        noc::GraphNoc m(noc::LowRadixMesh::ofRouters(4, 4, router),
                        router, 4, 4, opt.seed);
        double f = c.hirise ? f_hr : f_flat;
        return m.run(c.loadPns / f, warm, meas);
    });
    for (std::size_t i = 0; i < cells.size(); i += 2) {
        std::vector<std::string> row{Table::num(cells[i].loadPns, 3)};
        cell(results[i], f_hr, row);
        cell(results[i + 1], f_flat, row);
        t.row(row);
    }
    return t;
}

} // namespace hirise::harness
