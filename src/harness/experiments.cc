#include "harness/experiments.hh"

#include <cmath>

#include "common/parallel.hh"
#include "harness/paper_data.hh"
#include "phys/geometry.hh"
#include "traffic/pattern.hh"

namespace hirise::harness {

using sim::PatternFactory;
using sim::SimConfig;

SwitchSpec
spec2d(std::uint32_t radix)
{
    SwitchSpec s;
    s.topo = Topology::Flat2D;
    s.radix = radix;
    s.arb = ArbScheme::Lrg;
    return s;
}

SwitchSpec
specFolded(std::uint32_t radix, std::uint32_t layers)
{
    SwitchSpec s;
    s.topo = Topology::Folded3D;
    s.radix = radix;
    s.layers = layers;
    s.arb = ArbScheme::Lrg;
    return s;
}

SwitchSpec
specHiRise(std::uint32_t channels, ArbScheme arb, std::uint32_t radix,
           std::uint32_t layers)
{
    SwitchSpec s;
    s.topo = Topology::HiRise;
    s.radix = radix;
    s.layers = layers;
    s.channels = channels;
    s.arb = arb;
    return s;
}

namespace {

PatternFactory
uniform(std::uint32_t radix)
{
    return [radix] {
        return std::make_shared<traffic::UniformRandom>(radix);
    };
}

PatternFactory
hotspot(std::uint32_t radix, std::uint32_t hot)
{
    return [radix, hot] {
        return std::make_shared<traffic::Hotspot>(radix, hot);
    };
}

PatternFactory
adversarial()
{
    return [] {
        return std::make_shared<traffic::Adversarial>(
            std::vector<std::uint32_t>{3, 7, 11, 15, 20}, 63, 64);
    };
}

/** One cost-table row: a paper row paired with the spec to measure. */
struct CostJob
{
    const PaperCostRow *paper;
    SwitchSpec spec;
};

/** Fill the cost table: the saturation simulations (the expensive
 *  part) fan out through the campaign pool; rows are emitted in the
 *  original order afterwards. */
void
addCostRows(Table &t, const std::vector<CostJob> &jobs,
            const ExperimentOptions &opt)
{
    std::vector<double> tputs =
        parallelMap(jobs, [&](const CostJob &j) {
            return uniformSaturationTbps(j.spec, opt);
        });
    phys::PhysModel model;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const PaperCostRow &paper = *jobs[i].paper;
        auto rep = model.evaluate(jobs[i].spec);
        t.row({paper.design, paper.configuration,
               Table::num(paper.areaMm2, 3), Table::num(rep.areaMm2, 3),
               Table::num(paper.freqGhz, 2), Table::num(rep.freqGhz, 2),
               Table::num(paper.energyPj, 0),
               Table::num(rep.energyPerTransPj, 1),
               Table::num(paper.throughputTbps, 2),
               Table::num(tputs[i], 2),
               Table::integer(static_cast<long long>(paper.numTsvs)),
               Table::integer(static_cast<long long>(rep.numTsvs))});
    }
}

std::vector<std::string>
costHeader()
{
    return {"Design", "Configuration", "Area(p)", "Area(m)",
            "GHz(p)", "GHz(m)", "pJ(p)", "pJ(m)", "Tbps(p)",
            "Tbps(m)", "TSV(p)", "TSV(m)"};
}

} // namespace

double
uniformSaturationTbps(const SwitchSpec &spec,
                      const ExperimentOptions &opt)
{
    phys::PhysModel model;
    auto rep = model.evaluate(spec);
    double flits = sim::saturationFlitsPerCycle(spec, opt.simConfig(),
                                                uniform(spec.radix));
    return sim::toTbps(flits, rep.freqGhz, spec.flitBits);
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

Table
table1(const ExperimentOptions &opt)
{
    Table t("Table I: 2D vs 3D folded, 64-radix ((p)aper vs (m)odel)");
    t.header(costHeader());
    addCostRows(t,
                {{&kPaperTable4[0], spec2d()},
                 {&kPaperTable4[1], specFolded()}},
                opt);
    return t;
}

Table
table4(const ExperimentOptions &opt)
{
    Table t("Table IV: implementation cost of 64-radix switches "
            "((p)aper vs (m)odel)");
    t.header(costHeader());
    addCostRows(t,
                {{&kPaperTable4[0], spec2d()},
                 {&kPaperTable4[1], specFolded()},
                 {&kPaperTable4[2], specHiRise(4)},
                 {&kPaperTable4[3], specHiRise(2)},
                 {&kPaperTable4[4], specHiRise(1)}},
                opt);
    return t;
}

Table
table5(const ExperimentOptions &opt)
{
    Table t("Table V: arbitration variants, 64-radix 4-channel "
            "((p)aper vs (m)odel)");
    t.header(costHeader());
    addCostRows(t,
                {{&kPaperTable5[0], spec2d()},
                 {&kPaperTable5[1], specHiRise(4, ArbScheme::LayerLrg)},
                 {&kPaperTable5[2], specHiRise(4, ArbScheme::Clrg)}},
                opt);
    return t;
}

// ---------------------------------------------------------------------
// Figures 9a / 9b / 9c: physical-model sweeps
// ---------------------------------------------------------------------

Table
fig9a(const ExperimentOptions &)
{
    phys::PhysModel m;
    Table t("Fig 9a: frequency (GHz) vs radix, 4 layers");
    t.header({"Radix", "2D", "3D 4-Channel", "3D 2-Channel",
              "3D 1-Channel"});
    for (std::uint32_t r = 16; r <= 144; r += 16) {
        t.row({Table::integer(r),
               Table::num(m.evaluate(spec2d(r)).freqGhz, 2),
               Table::num(
                   m.evaluate(specHiRise(4, ArbScheme::LayerLrg, r))
                       .freqGhz,
                   2),
               Table::num(
                   m.evaluate(specHiRise(2, ArbScheme::LayerLrg, r))
                       .freqGhz,
                   2),
               Table::num(
                   m.evaluate(specHiRise(1, ArbScheme::LayerLrg, r))
                       .freqGhz,
                   2)});
    }
    return t;
}

Table
fig9b(const ExperimentOptions &)
{
    phys::PhysModel m;
    Table t("Fig 9b: frequency (GHz) vs stacked layers, 4-channel");
    t.header({"Layers", "Radix 48", "Radix 64", "Radix 80",
              "Radix 128"});
    for (std::uint32_t l = 2; l <= 7; ++l) {
        std::vector<std::string> row{Table::integer(l)};
        for (std::uint32_t r : {48u, 64u, 80u, 128u}) {
            row.push_back(Table::num(
                m.evaluate(specHiRise(4, ArbScheme::LayerLrg, r, l))
                    .freqGhz,
                2));
        }
        t.row(row);
    }
    return t;
}

Table
fig9c(const ExperimentOptions &)
{
    phys::PhysModel m;
    Table t("Fig 9c: energy per 128-bit transaction (pJ) vs radix");
    t.header({"Radix", "2D", "3D 4-Channel", "3D 2-Channel",
              "3D 1-Channel"});
    for (std::uint32_t r = 16; r <= 144; r += 16) {
        t.row({Table::integer(r),
               Table::num(m.evaluate(spec2d(r)).energyPerTransPj, 1),
               Table::num(
                   m.evaluate(specHiRise(4, ArbScheme::LayerLrg, r))
                       .energyPerTransPj,
                   1),
               Table::num(
                   m.evaluate(specHiRise(2, ArbScheme::LayerLrg, r))
                       .energyPerTransPj,
                   1),
               Table::num(
                   m.evaluate(specHiRise(1, ArbScheme::LayerLrg, r))
                       .energyPerTransPj,
                   1)});
    }
    return t;
}

// ---------------------------------------------------------------------
// Figure 10: latency vs load (uniform random)
// ---------------------------------------------------------------------

Table
fig10(const ExperimentOptions &opt)
{
    Table t("Fig 10: latency (ns) vs load (packets/input/ns), UR "
            "traffic, 64-radix");
    t.header({"Load(p/ns)", "2D", "3D 4-Ch", "3D 2-Ch", "3D 1-Ch",
              "3D Folded"});

    struct Entry
    {
        SwitchSpec spec;
        double freq;
    };
    phys::PhysModel m;
    std::vector<Entry> entries;
    for (auto spec :
         {spec2d(), specHiRise(4), specHiRise(2), specHiRise(1),
          specFolded()}) {
        entries.push_back({spec, m.evaluate(spec).freqGhz});
    }

    // The paper plots load in packets/input/ns: each design converts
    // it to packets/cycle through its own clock. All grid cells fan
    // out through the campaign pool; cells beyond the injection-
    // bandwidth limit of one flit/cycle (4-flit packets) are off the
    // chart and skipped.
    struct Cell
    {
        double loadPns;
        std::size_t entry;
        double pktPerCycle;
        bool run;
    };
    std::vector<Cell> cells;
    for (double load_pns = 0.05; load_pns <= 0.355; load_pns += 0.05) {
        for (std::size_t e = 0; e < entries.size(); ++e) {
            double pkt_per_cycle = load_pns / entries[e].freq;
            cells.push_back({load_pns, e, pkt_per_cycle,
                             pkt_per_cycle <= 0.25});
        }
    }
    // One design's runnable cells form one point family, evaluated
    // through sim::runPointsCached (one pool task per cache miss).
    std::vector<sim::SimResult> results(cells.size());
    for (std::size_t e = 0; e < entries.size(); ++e) {
        std::vector<std::size_t> idx;
        std::vector<sim::RunPoint> pts;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].entry == e && cells[i].run) {
                idx.push_back(i);
                pts.push_back(
                    {cells[i].pktPerCycle, opt.simConfig().seed});
            }
        }
        auto res = sim::runPointsCached(entries[e].spec,
                                        opt.simConfig(), uniform(64),
                                        pts);
        for (std::size_t k = 0; k < idx.size(); ++k)
            results[idx[k]] = std::move(res[k]);
    }

    for (std::size_t i = 0; i < cells.size();) {
        std::vector<std::string> row{Table::num(cells[i].loadPns, 2)};
        for (std::size_t e = 0; e < entries.size(); ++e, ++i) {
            if (!cells[i].run) {
                row.push_back("-");
                continue;
            }
            const sim::SimResult &r = results[i];
            bool saturated = r.acceptedFlitsPerCycle <
                             0.95 * r.offeredFlitsPerCycle;
            if (saturated) {
                row.push_back("sat");
            } else {
                row.push_back(Table::num(
                    r.avgLatencyCycles / entries[e].freq, 2));
            }
        }
        t.row(row);
    }
    return t;
}

// ---------------------------------------------------------------------
// Figure 11: arbitration-scheme studies
// ---------------------------------------------------------------------

Table
fig11a(const ExperimentOptions &opt)
{
    Table t("Fig 11a: per-input latency (cycles) for hotspot traffic "
            "(all inputs -> output 63), 80% of saturation");
    t.header({"Input", "2D", "3D L-2-L LRG", "3D WLRG", "3D CLRG"});

    // Hotspot saturation: one output serves len/(len+1) flits/cycle;
    // 63 inputs share it.
    SimConfig cfg = opt.simConfig();
    cfg.measureCycles *= 2; // per-input stats need more samples
    double sat_pkts = 0.8 / 4.0;
    double load = 0.8 * sat_pkts / 63.0;

    std::vector<SwitchSpec> specs{spec2d(),
                                  specHiRise(4, ArbScheme::LayerLrg),
                                  specHiRise(4, ArbScheme::Wlrg),
                                  specHiRise(4, ArbScheme::Clrg)};
    auto results = parallelMap(specs, [&](const SwitchSpec &spec) {
        return sim::runAtLoadCached(spec, cfg, hotspot(64, 63), load);
    });
    const auto &r2d = results[0];
    const auto &rlrg = results[1];
    const auto &rwlrg = results[2];
    const auto &rclrg = results[3];

    for (std::uint32_t i = 0; i < 63; ++i) {
        t.row({Table::integer(i),
               Table::num(r2d.perInputLatency[i], 0),
               Table::num(rlrg.perInputLatency[i], 0),
               Table::num(rwlrg.perInputLatency[i], 0),
               Table::num(rclrg.perInputLatency[i], 0)});
    }
    return t;
}

Table
fig11b(const ExperimentOptions &opt)
{
    Table t("Fig 11b: throughput (packets/ns) vs load "
            "(packets/input/ns), UR traffic");
    t.header({"Load(p/ns)", "2D", "3D L-2-L LRG", "3D WLRG",
              "3D CLRG"});

    phys::PhysModel m;
    struct Entry
    {
        SwitchSpec spec;
        double freq;
    };
    std::vector<Entry> entries;
    for (auto spec :
         {spec2d(), specHiRise(4, ArbScheme::LayerLrg),
          specHiRise(4, ArbScheme::Wlrg),
          specHiRise(4, ArbScheme::Clrg)}) {
        entries.push_back({spec, m.evaluate(spec).freqGhz});
    }

    struct Cell
    {
        double loadPns;
        std::size_t entry;
        double pktPerCycle;
    };
    std::vector<Cell> cells;
    for (double load_pns = 0.05; load_pns <= 0.455; load_pns += 0.05) {
        for (std::size_t e = 0; e < entries.size(); ++e) {
            cells.push_back(
                {load_pns, e,
                 std::min(load_pns / entries[e].freq, 1.0)});
        }
    }
    // Per-design point families again: each scheme's load column
    // goes through sim::runPointsCached as one family.
    std::vector<sim::SimResult> results(cells.size());
    for (std::size_t e = 0; e < entries.size(); ++e) {
        std::vector<std::size_t> idx;
        std::vector<sim::RunPoint> pts;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].entry == e) {
                idx.push_back(i);
                pts.push_back(
                    {cells[i].pktPerCycle, opt.simConfig().seed});
            }
        }
        auto res = sim::runPointsCached(entries[e].spec,
                                        opt.simConfig(), uniform(64),
                                        pts);
        for (std::size_t k = 0; k < idx.size(); ++k)
            results[idx[k]] = std::move(res[k]);
    }

    for (std::size_t i = 0; i < cells.size();) {
        std::vector<std::string> row{Table::num(cells[i].loadPns, 2)};
        for (std::size_t e = 0; e < entries.size(); ++e, ++i) {
            row.push_back(Table::num(
                sim::toPacketsPerNs(results[i].acceptedFlitsPerCycle,
                                    entries[e].freq, 4),
                2));
        }
        t.row(row);
    }
    return t;
}

Table
fig11c(const ExperimentOptions &opt)
{
    Table t("Fig 11c: per-input throughput (packets/ns) for the "
            "adversarial pattern ({3,7,11,15} on L1 + {20} on L2 -> "
            "output 63)");
    t.header({"Input", "2D", "3D L-2-L LRG", "3D WLRG", "3D CLRG"});

    phys::PhysModel m;
    SimConfig cfg = opt.simConfig();
    cfg.measureCycles *= 2;
    double load = 0.2; // past the shared output's capacity

    std::vector<SwitchSpec> specs{spec2d(),
                                  specHiRise(1, ArbScheme::LayerLrg),
                                  specHiRise(1, ArbScheme::Wlrg),
                                  specHiRise(1, ArbScheme::Clrg)};
    auto results = parallelMap(specs, [&](const SwitchSpec &spec) {
        return sim::runAtLoadCached(spec, cfg, adversarial(), load);
    });
    double f2d = m.evaluate(specs[0]).freqGhz;
    double flrg = m.evaluate(specs[1]).freqGhz;
    double fwlrg = m.evaluate(specs[2]).freqGhz;
    double fclrg = m.evaluate(specs[3]).freqGhz;
    const auto &r2d = results[0];
    const auto &rlrg = results[1];
    const auto &rwlrg = results[2];
    const auto &rclrg = results[3];

    for (std::uint32_t i : {3u, 7u, 11u, 15u, 20u}) {
        t.row({Table::integer(i),
               Table::num(r2d.perInputThroughput[i] * f2d, 3),
               Table::num(rlrg.perInputThroughput[i] * flrg, 3),
               Table::num(rwlrg.perInputThroughput[i] * fwlrg, 3),
               Table::num(rclrg.perInputThroughput[i] * fclrg, 3)});
    }
    return t;
}

// ---------------------------------------------------------------------
// Figure 12: TSV pitch sensitivity
// ---------------------------------------------------------------------

Table
fig12(const ExperimentOptions &)
{
    Table t("Fig 12: frequency and area vs TSV pitch, 64-radix "
            "4-channel 4-layer CLRG (2D reference: 1.69 GHz, "
            "0.672 mm^2)");
    t.header({"Pitch(um)", "Freq(GHz)", "Area(mm^2)"});
    for (double pitch = 0.4; pitch <= 5.01; pitch += 0.4) {
        phys::TechParams tech = phys::TechParams::nm32();
        tech.tsvPitchUm = pitch;
        phys::PhysModel m(tech);
        auto rep = m.evaluate(specHiRise(4, ArbScheme::Clrg));
        t.row({Table::num(pitch, 1), Table::num(rep.freqGhz, 3),
               Table::num(rep.areaMm2, 3)});
    }
    return t;
}

// ---------------------------------------------------------------------
// Extensions
// ---------------------------------------------------------------------

Table
cornerInterLayer(const ExperimentOptions &opt)
{
    Table t("Corner case (section VI-B): inter-layer-only traffic, "
            "four inputs sharing one L2LC -> distinct outputs");
    t.header({"Scheme", "Accepted flits/cycle", "Cap (flits/cycle)"});
    auto make = [] {
        return std::make_shared<traffic::InterLayerOnly>(16, 4, 0, 2);
    };
    std::vector<ArbScheme> arbs{ArbScheme::LayerLrg, ArbScheme::Wlrg,
                                ArbScheme::Clrg};
    auto results = parallelMap(arbs, [&](const ArbScheme &arb) {
        return sim::runAtLoadCached(specHiRise(4, arb),
                                    opt.simConfig(), make, 1.0);
    });
    for (std::size_t i = 0; i < arbs.size(); ++i) {
        t.row({toString(arbs[i]),
               Table::num(results[i].acceptedFlitsPerCycle, 3),
               Table::num(0.8, 3)});
    }
    return t;
}

Table
ablateClassCount(const ExperimentOptions &opt)
{
    Table t("Ablation: CLRG class count vs hotspot fairness "
            "(local-layer latency / remote-layer latency; 1.0 = "
            "perfectly level)");
    t.header({"Classes", "Local/remote latency ratio",
              "Avg latency (cycles)"});

    SimConfig cfg = opt.simConfig();
    double load = 0.8 * (0.8 / 4.0) / 63.0;
    std::vector<std::uint32_t> classCounts{2, 3, 4, 8};
    auto results =
        parallelMap(classCounts, [&](const std::uint32_t &classes) {
            SwitchSpec spec = specHiRise(4, ArbScheme::Clrg);
            spec.clrgMaxCount = classes - 1;
            return sim::runAtLoadCached(spec, cfg, hotspot(64, 63),
                                        load);
        });
    for (std::size_t j = 0; j < classCounts.size(); ++j) {
        std::uint32_t classes = classCounts[j];
        const sim::SimResult &r = results[j];
        double local = 0, remote = 0;
        int nl = 0, nr = 0;
        for (int i = 0; i < 63; ++i) {
            if (r.perInputLatency[i] <= 0)
                continue;
            if (i >= 48) {
                local += r.perInputLatency[i];
                ++nl;
            } else {
                remote += r.perInputLatency[i];
                ++nr;
            }
        }
        t.row({Table::integer(classes),
               Table::num((local / nl) / (remote / nr), 2),
               Table::num(r.avgLatencyCycles, 1)});
    }
    return t;
}

Table
ablateChannelAlloc(const ExperimentOptions &opt)
{
    Table t("Ablation: channel-allocation policy (64-radix 4-channel "
            "CLRG)");
    t.header({"Policy", "UR sat (flits/cycle)", "Freq (GHz)",
              "UR sat (Tbps)"});
    phys::PhysModel m;
    std::vector<ChannelAlloc> allocs{ChannelAlloc::InputBinned,
                                     ChannelAlloc::OutputBinned,
                                     ChannelAlloc::Priority};
    auto flitRates = parallelMap(allocs, [&](const ChannelAlloc &a) {
        SwitchSpec spec = specHiRise(4, ArbScheme::Clrg);
        spec.alloc = a;
        return sim::saturationFlitsPerCycle(spec, opt.simConfig(),
                                            uniform(64));
    });
    for (std::size_t i = 0; i < allocs.size(); ++i) {
        SwitchSpec spec = specHiRise(4, ArbScheme::Clrg);
        spec.alloc = allocs[i];
        double freq = m.evaluate(spec).freqGhz;
        t.row({toString(allocs[i]), Table::num(flitRates[i], 2),
               Table::num(freq, 2),
               Table::num(sim::toTbps(flitRates[i], freq, 128), 2)});
    }
    return t;
}

Table
headlineClaims(const ExperimentOptions &opt)
{
    Table t("Headline claims (abstract): Hi-Rise 4-channel CLRG vs "
            "2D, 64-radix");
    t.header({"Metric", "Paper", "Measured"});
    phys::PhysModel m;
    auto hr = m.evaluate(specHiRise(4, ArbScheme::Clrg));
    auto flat = m.evaluate(spec2d());

    // Four independent measurements; fan out through the pool.
    // Zero-load latency is in ns (cycle counts match; clocks differ).
    std::vector<std::function<double()>> jobs{
        [&] {
            return uniformSaturationTbps(
                specHiRise(4, ArbScheme::Clrg), opt);
        },
        [&] { return uniformSaturationTbps(spec2d(), opt); },
        [&] {
            return sim::runAtLoadCached(specHiRise(4, ArbScheme::Clrg),
                                        opt.simConfig(), uniform(64),
                                        0.01)
                       .avgLatencyCycles /
                   hr.freqGhz;
        },
        [&] {
            return sim::runAtLoadCached(spec2d(), opt.simConfig(),
                                        uniform(64), 0.01)
                       .avgLatencyCycles /
                   flat.freqGhz;
        }};
    auto vals = parallelMap(
        jobs, [](const std::function<double()> &f) { return f(); });
    double hr_tput = vals[0];
    double flat_tput = vals[1];
    double lat_hr = vals[2];
    double lat_2d = vals[3];

    PaperHeadline p;
    t.row({"Throughput (Tbps)", Table::num(p.throughputTbps, 2),
           Table::num(hr_tput, 2)});
    t.row({"Throughput gain (%)", Table::num(p.throughputGainPct, 0),
           Table::num(100.0 * (hr_tput / flat_tput - 1.0), 1)});
    t.row({"Area reduction (%)", Table::num(p.areaReductionPct, 0),
           Table::num(100.0 * (1.0 - hr.areaMm2 / flat.areaMm2), 1)});
    t.row({"Latency reduction (%)",
           Table::num(p.latencyReductionPct, 0),
           Table::num(100.0 * (1.0 - lat_hr / lat_2d), 1)});
    t.row({"Energy reduction (%)", Table::num(p.energyReductionPct, 0),
           Table::num(100.0 * (1.0 - hr.energyPerTransPj /
                                         flat.energyPerTransPj),
                      1)});
    return t;
}

} // namespace hirise::harness
