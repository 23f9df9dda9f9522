/**
 * @file
 * Methodology ablations beyond the paper's figures: buffer
 * architecture sensitivity and seed sensitivity (error bars) for the
 * headline throughput numbers.
 */

#include "harness/experiments.hh"

#include <cmath>

#include "common/parallel.hh"
#include "phys/model.hh"
#include "traffic/pattern.hh"

namespace hirise::harness {

Table
ablateBuffers(const ExperimentOptions &opt)
{
    Table t("Ablation: VC count x buffer depth (paper section V uses "
            "4 VCs x 4 flits) - UR saturation in flits/cycle");
    t.header({"VCs", "Depth", "2D", "HiRise c4 CLRG"});

    auto uniform = [] {
        return std::make_shared<traffic::UniformRandom>(64);
    };
    struct Cell
    {
        std::uint32_t vcs, depth;
    };
    std::vector<Cell> cells;
    for (std::uint32_t vcs : {1u, 2u, 4u, 8u})
        for (std::uint32_t depth : {2u, 4u, 8u})
            cells.push_back({vcs, depth});
    // Both designs for one buffer shape form one task; the 24
    // simulations fan out through the campaign pool.
    auto rates = parallelMap(cells, [&](const Cell &c) {
        sim::SimConfig cfg = opt.simConfig();
        cfg.numVcs = c.vcs;
        cfg.vcDepth = c.depth;
        double flat =
            sim::saturationFlitsPerCycle(spec2d(), cfg, uniform);
        double hr = sim::saturationFlitsPerCycle(
            specHiRise(4, ArbScheme::Clrg), cfg, uniform);
        return std::pair<double, double>{flat, hr};
    });
    for (std::size_t i = 0; i < cells.size(); ++i) {
        t.row({Table::integer(cells[i].vcs),
               Table::integer(cells[i].depth),
               Table::num(rates[i].first, 2),
               Table::num(rates[i].second, 2)});
    }
    return t;
}

Table
seedSensitivity(const ExperimentOptions &opt)
{
    Table t("Seed sensitivity: UR saturation throughput (Tbps), "
            "mean +- stddev over 5 seeds");
    t.header({"Design", "Mean", "Stddev", "Paper"});

    struct Entry
    {
        const char *label;
        SwitchSpec spec;
        double paper;
    };
    const Entry entries[] = {
        {"2D", spec2d(), 9.24},
        {"3D Folded", specFolded(), 8.86},
        {"3D 4-Ch CLRG", specHiRise(4, ArbScheme::Clrg), 10.65},
        {"3D 2-Ch CLRG", specHiRise(2, ArbScheme::Clrg), 7.65},
        {"3D 1-Ch CLRG", specHiRise(1, ArbScheme::Clrg), 4.27},
    };
    // One design's five seeds are one point family at full load,
    // evaluated through sim::runPointsCached; each seed's result is
    // bit-identical to the serial per-seed run, keeping the published
    // statistics. Aggregation stays in seed order.
    std::vector<std::size_t> idx(std::size(entries));
    for (std::size_t e = 0; e < idx.size(); ++e)
        idx[e] = e;
    auto perDesign = parallelMap(idx, [&](const std::size_t &e) {
        phys::PhysModel model;
        auto rep = model.evaluate(entries[e].spec);
        const std::uint32_t radix = entries[e].spec.radix;
        auto make = [radix] {
            return std::make_shared<traffic::UniformRandom>(radix);
        };
        std::vector<sim::RunPoint> pts;
        for (std::uint64_t seed = 1; seed <= 5; ++seed)
            pts.push_back({1.0, seed});
        auto res = sim::runPointsCached(entries[e].spec,
                                        opt.simConfig(), make, pts);
        std::vector<double> tbps;
        for (const auto &r : res) {
            tbps.push_back(sim::toTbps(r.acceptedFlitsPerCycle,
                                       rep.freqGhz,
                                       entries[e].spec.flitBits));
        }
        return tbps;
    });
    for (std::size_t e = 0; e < std::size(entries); ++e) {
        RunningStat s;
        for (double v : perDesign[e])
            s.add(v);
        t.row({entries[e].label, Table::num(s.mean(), 2),
               Table::num(std::sqrt(s.variance()), 3),
               Table::num(entries[e].paper, 2)});
    }
    return t;
}

} // namespace hirise::harness
