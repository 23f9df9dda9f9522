/**
 * @file
 * --length-split: does a workload's short simulated length keep the
 * time split of the repository's own runs? For every kind of unit the
 * workloads simulate, this runs the unit at the benchmark's length and
 * at the harness's --quick length and prints
 *  - fixed_share: construction plus the campaign's cache key, lookup
 *    and store, as a share of the unit's time,
 *  - layer_share: time inside the fabric (switch points) or the
 *    transport (CMP systems), as a share of the run, through the
 *    forwarding wrappers of the traced run,
 *  - ns_per_cycle: host time per simulated cycle per lane,
 * so the two lengths can be compared line by line.
 */

// mesh.hh first: noc::Topology (topology.hh) would otherwise shadow
// hirise::Topology inside mesh.hh's inline members.
#include "noc/mesh.hh"

#include <cstdio>

#include "cmp/msg_switch.hh"
#include "cmp/system.hh"
#include "harness/experiments.hh"
#include "noc/graph_noc.hh"
#include "phys/model.hh"
#include "sim/batch_sim.hh"
#include "traffic/pattern.hh"
#include "workloads.hh"
#include "wrappers.hh"

namespace perfbench {

namespace {

using hirise::ArbScheme;
using hirise::SwitchSpec;
using hirise::sim::SimCache;
using hirise::sim::SimConfig;
using hirise::sim::SimResult;
namespace cmp = hirise::cmp;
namespace noc = hirise::noc;

// The harness's --quick lengths: ExperimentOptions::simConfig() for
// switch points, table6.cc / discussion.cc for CMP systems,
// kilocore.cc for meshes, discussion.cc for the GraphNoc comparison.
const Length kQuickSwitch{
    hirise::harness::ExperimentOptions{true}.simConfig().warmupCycles,
    hirise::harness::ExperimentOptions{true}.simConfig().measureCycles};
constexpr Length kQuickCmp{5000, 30000};
constexpr Length kQuickMesh{1000, 4000};
constexpr Length kQuickGraph{1000, 5000};

struct Split
{
    double fixedSec = 0.0; //!< construction + cache key/lookup/store
    double runSec = 0.0;
    double layerSec = 0.0; //!< traced: inside fabric / transport
    double laneCycles = 0.0;
};

/** One campaign-path simulator call: a scalar point for one load, a
 *  BatchSim lane group for several. */
Split
switchCall(const SwitchSpec &spec, const std::vector<double> &loads,
           Length len, bool traced)
{
    SimConfig cfg;
    cfg.warmupCycles = len.warmup;
    cfg.measureCycles = len.measure;
    cfg.seed = 7;
    auto make = [&] {
        return std::make_shared<hirise::traffic::UniformRandom>(spec.radix);
    };
    FabricTap tap(spec);
    Split s;
    SimCache cache;
    const std::string desc = make()->descriptor();
    std::vector<std::uint64_t> keys;
    auto t0 = Clock::now();
    for (double load : loads) {
        SimConfig c = cfg;
        c.injectionRate = load;
        keys.push_back(SimCache::key(spec, c, desc));
        SimResult r;
        cache.lookup(keys.back(), &r);
    }
    s.fixedSec += secondsSince(t0);

    std::vector<SimResult> out;
    if (loads.size() == 1) {
        cfg.injectionRate = loads[0];
        t0 = Clock::now();
        std::unique_ptr<hirise::sim::NetworkSim> sim =
            traced ? std::make_unique<hirise::sim::NetworkSim>(
                         spec, cfg, make(), tap.make())
                   : std::make_unique<hirise::sim::NetworkSim>(spec, cfg,
                                                               make());
        auto t1 = Clock::now();
        out.push_back(sim->run());
        s.fixedSec += secondsBetween(t0, t1);
        s.runSec += secondsSince(t1);
    } else {
        std::vector<std::shared_ptr<hirise::traffic::TrafficPattern>> pats;
        std::vector<hirise::sim::BatchPoint> pts;
        for (double load : loads) {
            pats.push_back(make());
            pts.push_back({load, cfg.seed});
        }
        t0 = Clock::now();
        hirise::sim::BatchSim sim(
            spec, cfg, std::move(pats), std::move(pts),
            traced ? hirise::sim::FabricFactory([&] { return tap.make(); })
                   : hirise::sim::FabricFactory());
        auto t1 = Clock::now();
        out = sim.run();
        s.fixedSec += secondsBetween(t0, t1);
        s.runSec += secondsSince(t1);
    }
    s.layerSec = 1e-9 * double(tap.total().ns);
    t0 = Clock::now();
    for (std::size_t i = 0; i < out.size(); ++i)
        cache.store(keys[i], out[i]);
    s.fixedSec += secondsSince(t0);
    s.laneCycles = double(loads.size()) * double(len.total());
    return s;
}

/** A 64-core CMP system on a central switch (MsgSwitch transport). */
Split
cmpSystem(const SwitchSpec &spec, std::size_t mix, Length len, bool traced)
{
    cmp::SystemConfig cfg;
    cfg.switchFreqGhz = hirise::phys::PhysModel().evaluate(spec).freqGhz;
    auto per_core = cmp::assignMix(cmp::paperMixes()[mix], cfg.numTiles);
    ForwardingTransport *wrap = nullptr;
    Split s;
    auto t0 = Clock::now();
    std::unique_ptr<cmp::CmpSystem> sys;
    if (traced) {
        sys = std::make_unique<cmp::CmpSystem>(
            [&](cmp::Transport::DeliverFn d) {
                auto w = std::make_unique<ForwardingTransport>(
                    std::make_unique<cmp::MsgSwitch>(spec, cfg.switchVcs,
                                                     std::move(d)));
                wrap = w.get();
                return w;
            },
            cfg, std::move(per_core));
    } else {
        sys = std::make_unique<cmp::CmpSystem>(spec, cfg,
                                               std::move(per_core));
    }
    auto t1 = Clock::now();
    sys->run(len.warmup, len.measure);
    s.fixedSec = secondsBetween(t0, t1);
    s.runSec = secondsSince(t1);
    if (wrap) {
        s.layerSec = 1e-9 * double(wrap->stepStats().ns +
                                   wrap->sendStats().ns);
    }
    s.laneCycles = double(len.total());
    return s;
}

/** A kilo-core 4x4 mesh of @p router switches. */
Split
mesh(const SwitchSpec &router, double rate, Length len)
{
    noc::MeshConfig mc;
    mc.width = 4;
    mc.height = 4;
    mc.router = router;
    mc.seed = 7;
    Split s;
    auto t0 = Clock::now();
    noc::MeshNoc m(mc);
    auto t1 = Clock::now();
    m.run(rate, len.warmup, len.measure);
    s.fixedSec = secondsBetween(t0, t1);
    s.runSec = secondsSince(t1);
    s.laneCycles = double(len.total());
    return s;
}

/** The GraphNoc low-radix mesh of the section VI-E comparison. */
Split
graph(Length len)
{
    Split s;
    auto t0 = Clock::now();
    noc::GraphNoc g(std::make_shared<noc::LowRadixMesh>(8, 1, 1.0), 4, 4,
                    7);
    auto t1 = Clock::now();
    g.run(0.02, len.warmup, len.measure);
    s.fixedSec = secondsBetween(t0, t1);
    s.runSec = secondsSince(t1);
    s.laneCycles = double(len.total());
    return s;
}

void
print(const char *unit, const char *which, Length len, const Split &plain,
      const Split &traced, bool has_layer)
{
    char layer[32] = "-";
    if (has_layer)
        std::snprintf(layer, sizeof(layer), "%.4f",
                      traced.layerSec / traced.runSec);
    std::printf("split %-24s %-13s length=%-6llu fixed_share=%.4f "
                "layer_share=%-6s ns_per_cycle=%.1f\n",
                unit, which, static_cast<unsigned long long>(len.total()),
                plain.fixedSec / (plain.fixedSec + plain.runSec), layer,
                1e9 * plain.runSec / plain.laneCycles);
}

} // namespace

void
lengthSplit(const RunOptions &)
{
    using namespace hirise::harness;
    const std::vector<double> low = {0.05}, mid = {0.2, 0.35, 0.5, 0.65, 0.8},
                              sat = {1.0, 1.1, 1.2, 1.3, 1.4};
    struct Fam
    {
        const char *name;
        SwitchSpec spec;
    };
    const Fam fams[] = {{"hirise64-clrg", specHiRise(4, ArbScheme::Clrg)},
                        {"flat64", spec2d()},
                        {"flat256", spec2d(256)}};
    for (const Fam &f : fams) {
        for (const auto &[regime, loads] :
             {std::pair{"low", low}, std::pair{"mid", mid},
              std::pair{"sat", sat}}) {
            std::string unit = std::string(f.name) + "." + regime;
            for (const auto &[which, len] :
                 {std::pair{"paper_sweep", kSweepLength},
                  std::pair{"serve_mix", kColdJobLength},
                  std::pair{"harness-quick", kQuickSwitch}}) {
                Split p = switchCall(f.spec, loads, len, false);
                Split t = switchCall(f.spec, loads, len, true);
                print(unit.c_str(), which, len, p, t, true);
            }
        }
    }
    const auto &mixes = cmp::paperMixes();
    for (const auto &[name, spec] :
         {std::pair{"cmp.2d", spec2d()},
          std::pair{"cmp.hirise-clrg", specHiRise(4, ArbScheme::Clrg)}}) {
        for (std::size_t mix : {std::size_t{0}, mixes.size() - 1}) {
            std::string unit = std::string(name) + "." + mixes[mix].name;
            for (const auto &[which, len] :
                 {std::pair{"cmp_noc", kCmpLength},
                  std::pair{"harness-quick", kQuickCmp}}) {
                Split p = cmpSystem(spec, mix, len, false);
                Split t = cmpSystem(spec, mix, len, true);
                print(unit.c_str(), which, len, p, t, true);
            }
        }
    }
    hirise::phys::PhysModel model;
    const SwitchSpec hr = specHiRise(4, ArbScheme::Clrg), flat = spec2d(52);
    for (const auto &[name, router] :
         {std::pair{"mesh.hirise", hr}, std::pair{"mesh.flat", flat}}) {
        double rate = 0.035 / model.evaluate(router).freqGhz;
        for (const auto &[which, len] :
             {std::pair{"cmp_noc", kMeshLength},
              std::pair{"harness-quick", kQuickMesh}}) {
            Split p = mesh(router, rate, len);
            print(name, which, len, p, p, false);
        }
    }
    for (const auto &[which, len] : {std::pair{"cmp_noc", kGraphLength},
                                     std::pair{"harness-quick", kQuickGraph}}) {
        Split p = graph(len);
        print("graph.mesh8x8", which, len, p, p, false);
    }
}

} // namespace perfbench
