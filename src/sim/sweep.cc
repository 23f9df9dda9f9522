#include "sim/sweep.hh"

#include <algorithm>

#include "common/parallel.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hirise::sim {

SimResult
runAtLoad(const SwitchSpec &spec, const SimConfig &base,
          const PatternFactory &make, double load)
{
    SimConfig cfg = base;
    cfg.injectionRate = load;
    NetworkSim sim(spec, cfg, make());
    return sim.run();
}

std::vector<SimResult>
runPointsCached(const SwitchSpec &spec, const SimConfig &base,
                const PatternFactory &make,
                const std::vector<RunPoint> &pts,
                const CampaignOptions &opt)
{
    SimCache &c = opt.cache ? *opt.cache : SimCache::global();
    std::vector<SimResult> results(pts.size());

    // Per-point config + cache probe. The descriptor is a function of
    // constructor parameters only, so one instance describes every
    // pattern built from the same factory.
    const std::string desc = make()->descriptor();
    std::vector<SimConfig> cfgs(pts.size(), base);
    std::vector<std::uint64_t> keys(pts.size());
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        cfgs[i].injectionRate = pts[i].load;
        cfgs[i].seed = pts[i].seed;
        keys[i] = SimCache::key(spec, cfgs[i], desc);
        if (!c.lookup(keys[i], &results[i]))
            misses.push_back(i);
    }
    if (misses.empty())
        return results;

    auto eval = [&](std::size_t i) {
        NetworkSim sim(spec, cfgs[i], make());
        return sim.run();
    };
    std::vector<SimResult> ran =
        parallelMap(misses, eval, opt.maxThreads, opt.pool);
    for (std::size_t j = 0; j < misses.size(); ++j) {
        results[misses[j]] = std::move(ran[j]);
        c.store(keys[misses[j]], results[misses[j]]);
    }
    return results;
}

SimResult
runAtLoadCached(const SwitchSpec &spec, const SimConfig &base,
                const PatternFactory &make, double load, SimCache *cache)
{
    std::vector<SimResult> r =
        runPointsCached(spec, base, make, {RunPoint{load, base.seed}},
                        CampaignOptions{nullptr, cache});
    return std::move(r.front());
}

std::vector<SweepPoint>
loadSweep(const SwitchSpec &spec, const SimConfig &base,
          const PatternFactory &make, const std::vector<double> &loads,
          const CampaignOptions &opt)
{
    std::vector<RunPoint> pts(loads.size());
    for (std::size_t i = 0; i < pts.size(); ++i)
        pts[i] = RunPoint{loads[i], base.seed};
    std::vector<SimResult> res =
        runPointsCached(spec, base, make, pts, opt);
    std::vector<SweepPoint> out(loads.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = SweepPoint{loads[i], std::move(res[i])};
    return out;
}

std::vector<SweepPoint>
loadSweep(const SwitchSpec &spec, const SimConfig &base,
          const PatternFactory &make, const std::vector<double> &loads)
{
    return loadSweep(spec, base, make, loads, CampaignOptions{});
}

double
saturationFlitsPerCycle(const SwitchSpec &spec, const SimConfig &base,
                        const PatternFactory &make)
{
    return runAtLoadCached(spec, base, make, 1.0).acceptedFlitsPerCycle;
}

namespace {

bool
belowSaturation(const SimResult &r)
{
    return r.acceptedFlitsPerCycle >= 0.98 * r.offeredFlitsPerCycle;
}

/** Preorder layout (node, left subtree, right subtree) of every
 *  midpoint a depth-@p depth bisection could visit from (lo, hi),
 *  computed by the same 0.5*(lo+hi) recursion as the serial search so
 *  speculative and serial answers are bit-identical. */
void
speculationTree(double lo, double hi, int depth,
                std::vector<double> &out)
{
    if (depth == 0)
        return;
    double mid = 0.5 * (lo + hi);
    out.push_back(mid);
    speculationTree(lo, mid, depth - 1, out); // "above saturation" arm
    speculationTree(mid, hi, depth - 1, out); // "below saturation" arm
}

} // namespace

double
saturationLoad(const SwitchSpec &spec, const SimConfig &base,
               const PatternFactory &make, double lo, double hi,
               int iters)
{
    for (int i = 0; i < iters; ++i) {
        double mid = 0.5 * (lo + hi);
        SimResult r = runAtLoadCached(spec, base, make, mid);
        if (belowSaturation(r))
            lo = mid; // still below saturation
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

double
saturationLoadSpeculative(const SwitchSpec &spec, const SimConfig &base,
                          const PatternFactory &make, double lo,
                          double hi, int iters, int spec_depth,
                          const CampaignOptions &opt)
{
    spec_depth = std::max(spec_depth, 1);
    std::vector<double> mids;
    for (int done = 0; done < iters;) {
        int d = std::min(spec_depth, iters - done);
        mids.clear();
        speculationTree(lo, hi, d, mids);
        // The whole speculation tree is one point family: its cache
        // misses run as 2^d - 1 concurrent pool tasks.
        std::vector<RunPoint> tree(mids.size());
        for (std::size_t i = 0; i < mids.size(); ++i)
            tree[i] = RunPoint{mids[i], base.seed};
        std::vector<SimResult> evals =
            runPointsCached(spec, base, make, tree, opt);
        std::vector<char> below(mids.size());
        for (std::size_t i = 0; i < mids.size(); ++i)
            below[i] = belowSaturation(evals[i]);

        // Walk the verdicts down the preorder tree: a node's left
        // subtree (taken when the midpoint saturates) directly follows
        // it; the right subtree starts one full left-subtree later.
        std::size_t pos = 0;
        for (int level = 0; level < d; ++level) {
            double mid = mids[pos];
            std::size_t leftSize =
                (std::size_t{1} << (d - level - 1)) - 1;
            if (below[pos]) {
                lo = mid;
                pos += 1 + leftSize;
            } else {
                hi = mid;
                pos += 1;
            }
        }
        done += d;
    }
    return 0.5 * (lo + hi);
}

double
toTbps(double flits_per_cycle, double freq_ghz, std::uint32_t flit_bits)
{
    return flits_per_cycle * freq_ghz * 1e9 *
           static_cast<double>(flit_bits) * 1e-12;
}

double
toPacketsPerNs(double flits_per_cycle, double freq_ghz,
               std::uint32_t packet_len)
{
    return flits_per_cycle / static_cast<double>(packet_len) * freq_ghz;
}

} // namespace hirise::sim
