/**
 * @file
 * Design-space exploration with the physical model + simulator: for a
 * target radix, sweep layer count and channel multiplicity, report
 * area / frequency / energy / simulated saturation throughput, and
 * pick the best configuration by throughput per mm^2 — the kind of
 * study behind the paper's choice of the 4-channel 4-layer design.
 *
 *   ./examples/design_space [radix]
 */

#include <cstdio>
#include <cstdlib>

#include "common/table.hh"
#include "phys/model.hh"
#include "sim/sweep.hh"
#include "traffic/pattern.hh"

int
main(int argc, char **argv)
{
    using namespace hirise;

    std::uint32_t radix =
        argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 64;

    phys::PhysModel model;
    sim::SimConfig cfg;
    cfg.warmupCycles = 3000;
    cfg.measureCycles = 12000;
    auto uniform = [radix] {
        return std::make_shared<traffic::UniformRandom>(radix);
    };

    Table t("Hi-Rise design space, radix " + std::to_string(radix) +
            " (CLRG, uniform random)");
    t.header({"Layers", "Channels", "GHz", "mm^2", "pJ", "Tbps",
              "Tbps/mm^2"});

    double best_density = 0.0;
    char best[32] = ""; // "L<layers> c<channels>"
    for (std::uint32_t layers : {2u, 3u, 4u, 5u, 6u}) {
        for (std::uint32_t chans : {1u, 2u, 4u}) {
            SwitchSpec spec;
            spec.topo = Topology::HiRise;
            spec.radix = radix;
            spec.layers = layers;
            spec.channels = chans;
            spec.arb = ArbScheme::Clrg;

            auto rep = model.evaluate(spec);
            double flits =
                sim::saturationFlitsPerCycle(spec, cfg, uniform);
            double tbps = sim::toTbps(flits, rep.freqGhz,
                                      spec.flitBits);
            double density = tbps / rep.areaMm2;
            t.row({Table::integer(layers), Table::integer(chans),
                   Table::num(rep.freqGhz, 2),
                   Table::num(rep.areaMm2, 3),
                   Table::num(rep.energyPerTransPj, 1),
                   Table::num(tbps, 2), Table::num(density, 1)});
            if (density > best_density) {
                best_density = density;
                std::snprintf(best, sizeof best, "L%u c%u", layers,
                              chans);
            }
        }
    }
    t.print();

    // The flat 2D reference point.
    SwitchSpec flat;
    flat.topo = Topology::Flat2D;
    flat.radix = radix;
    flat.arb = ArbScheme::Lrg;
    auto rep2d = model.evaluate(flat);
    double flits2d = sim::saturationFlitsPerCycle(flat, cfg, uniform);
    double tbps2d = sim::toTbps(flits2d, rep2d.freqGhz, flat.flitBits);
    std::printf("\n2D reference: %.2f GHz, %.3f mm^2, %.2f Tbps "
                "(%.1f Tbps/mm^2)\n",
                rep2d.freqGhz, rep2d.areaMm2, tbps2d,
                tbps2d / rep2d.areaMm2);
    std::printf("Best Hi-Rise by bandwidth density: %s "
                "(%.1f Tbps/mm^2)\n",
                best, best_density);
    return 0;
}
