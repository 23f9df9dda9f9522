#include "points.hh"

#include "common/parallel.hh"
#include "sim/batch_sim.hh"
#include "wrappers.hh"

namespace perfbench {

using hirise::sim::BatchPoint;
using hirise::sim::BatchSim;
using hirise::sim::FabricFactory;
using hirise::sim::NetworkSim;
using hirise::sim::RunPoint;
using hirise::sim::SimCache;
using hirise::sim::SimConfig;
using hirise::sim::SimResult;

std::string
fabricKind(const hirise::SwitchSpec &spec)
{
    if (spec.topo == hirise::Topology::HiRise && spec.radix == 64)
        return "hirise64";
    if (spec.topo == hirise::Topology::Flat2D && spec.radix == 64)
        return "flat64";
    if (spec.topo == hirise::Topology::Flat2D && spec.radix == 256)
        return "flat256";
    return "";
}

SimResult
directRun(const Family &f, const RunPoint &pt)
{
    SimConfig cfg = f.cfg;
    cfg.injectionRate = pt.load;
    cfg.seed = pt.seed;
    NetworkSim sim(f.spec, cfg, f.make());
    return sim.run();
}

std::vector<SimResult>
Replayer::evalPoints(const Family &f, const std::vector<RunPoint> &pts,
                     std::uint64_t job_id)
{
    auto start = Clock::now();
    const bool traced = tracer_ != nullptr;
    const std::string desc = f.make()->descriptor();
    std::vector<SimResult> results(pts.size());
    std::vector<SimConfig> cfgs(pts.size(), f.cfg);
    std::vector<std::uint64_t> keys(pts.size());
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        cfgs[i].injectionRate = pts[i].load;
        cfgs[i].seed = pts[i].seed;
        auto t0 = Clock::now();
        keys[i] = SimCache::key(f.spec, cfgs[i], desc);
        bool hit = cache_.lookup(keys[i], &results[i]);
        if (traced) {
            stats_.lookupNs +=
                1e9 * secondsSince(t0); // key + lookup, as on the path
        }
        ++stats_.lookups;
        if (hit)
            ++stats_.hits;
        else
            misses.push_back(i);
    }

    // The lane groups runPointsCached forms from the same misses.
    const std::uint32_t B = hirise::sim::batchReplicas();
    const bool batching = B > 1 && !f.cfg.trace && BatchSim::usable();
    std::vector<std::vector<std::size_t>> groups;
    std::vector<std::size_t> open;
    for (std::size_t i : misses) {
        if (batching && pts[i].load > NetworkSim::kInjHeapMaxRate) {
            open.push_back(i);
            if (open.size() == B) {
                groups.push_back(open);
                open.clear();
            }
        } else {
            groups.push_back({i});
        }
    }
    if (!open.empty())
        groups.push_back(open);

    const std::string kind = fabricKind(f.spec);
    auto eval = [&](const std::vector<std::size_t> &g) {
        FabricTap tap(f.spec);
        std::vector<SimResult> r;
        CallStats fab;
        auto t0 = Clock::now();
        if (g.size() == 1) {
            std::unique_ptr<NetworkSim> sim =
                traced ? std::make_unique<NetworkSim>(f.spec, cfgs[g[0]],
                                                      f.make(), tap.make())
                       : std::make_unique<NetworkSim>(f.spec, cfgs[g[0]],
                                                      f.make());
            r.push_back(sim->run());
            fab = tap.total();
        } else {
            std::vector<std::shared_ptr<hirise::traffic::TrafficPattern>>
                pats;
            std::vector<BatchPoint> bpts;
            for (std::size_t i : g) {
                pats.push_back(f.make());
                bpts.push_back({pts[i].load, pts[i].seed});
            }
            BatchSim sim(f.spec, f.cfg, std::move(pats), std::move(bpts),
                         traced ? FabricFactory([&] { return tap.make(); })
                                : FabricFactory());
            r = sim.run();
            fab = tap.total();
        }
        auto t1 = Clock::now();
        double sec = secondsBetween(t0, t1);
        Regime regime = kSat;
        for (std::size_t i : g) {
            if (pts[i].load < 1.0)
                regime = kMid;
        }
        if (g.size() == 1 && pts[g[0]].load <= NetworkSim::kInjHeapMaxRate)
            regime = kLow;
        if (traced) {
            tracer_->add(g.size() == 1 ? "point" : "lane_group",
                         "network_sim", job_id, t0, t1,
                         {{"lanes", double(g.size())},
                          {"load", pts[g[0]].load},
                          {"fabric_calls", double(fab.calls)},
                          {"fabric_ns", double(fab.ns)}});
        }
        std::lock_guard<std::mutex> lk(mu_);
        stats_.callSec[regime].add(sec);
        stats_.portCycles[regime] +=
            double(g.size()) * double(f.portCyclesPerPoint());
        for (std::size_t k = 0; k < g.size(); ++k)
            stats_.pointSec.add(sec / double(g.size()));
        stats_.callSecSum += sec;
        stats_.points += g.size();
        stats_.fabricCalls += fab.calls;
        stats_.fabricNs += double(fab.ns);
        if (!kind.empty()) {
            stats_.byKind[kind].first += fab.calls;
            stats_.byKind[kind].second += double(fab.ns);
        }
        return r;
    };
    std::vector<std::vector<SimResult>> ran =
        hirise::parallelMap(groups, eval, 0, &pool_);

    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        for (std::size_t j = 0; j < groups[gi].size(); ++j) {
            std::size_t i = groups[gi][j];
            results[i] = ran[gi][j];
            auto t0 = Clock::now();
            cache_.store(keys[i], results[i]);
            if (traced)
                stats_.storeNs += 1e9 * secondsSince(t0);
            ++stats_.stores;
        }
    }
    stats_.busySec += secondsSince(start);
    return results;
}

void
pointLayerMetrics(const ReplayStats &plain, const ReplayStats &traced,
                  unsigned busy_threads, std::map<std::string, double> &out)
{
    static const char *names[kRegimes] = {"low", "mid", "sat"};
    for (int g = 0; g < kRegimes; ++g) {
        double sec = plain.callSec[g].sum();
        if (sec > 0.0) {
            out[std::string("network_sim.") + names[g] +
                ".port_cycles_per_s"] = plain.portCycles[g] / sec;
        }
    }
    out["network_sim.point_p50_ms"] = plain.pointSec.median() * 1e3;
    out["network_sim.point_tail_ms"] = plain.pointSec.quantile(0.9) * 1e3;
    if (plain.busySec > 0.0) {
        out["sweep.parallel_eff"] =
            plain.callSecSum / (plain.busySec * double(busy_threads));
    }
    double traced_sec = traced.callSecSum;
    if (traced_sec > 0.0) {
        double share = traced.fabricNs * 1e-9 / traced_sec;
        out["fabric.share"] = share;
        out["network_sim.self_frac"] = 1.0 - share;
    }
    if (traced.points > 0) {
        out["fabric.calls_per_point"] =
            double(traced.fabricCalls) / double(traced.points);
    }
    for (const auto &[kind, cn] : traced.byKind) {
        if (cn.first > 0)
            out["fabric." + kind + ".ns_per_call"] =
                cn.second / double(cn.first);
    }
    if (traced.lookups > 0) {
        out["sim_cache.hit_ratio"] =
            double(traced.hits) / double(traced.lookups);
        out["sim_cache.lookup_ns"] =
            traced.lookupNs / double(traced.lookups);
    }
    if (traced.stores > 0)
        out["sim_cache.store_ns"] = traced.storeNs / double(traced.stores);
}

} // namespace perfbench
