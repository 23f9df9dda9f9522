#include "svc/campaign.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "sim/network_sim.hh"
#include "svc/json.hh"

namespace hirise::svc {

std::string
resultRow(std::size_t index, const sim::RunPoint &pt,
          const sim::SimResult &r)
{
    // Hand-rolled for a fixed member order and zero intermediate
    // allocation: keys are pre-quoted literals and numbers are
    // spelled straight into the row. This runs once per streamed row
    // and is also the byte-identity contract, so keep it boring and
    // explicit.
    std::string out;
    out.reserve(320);
    out += "{\"row\":";
    appendNumber(out, double(index));
    out += ",\"load\":";
    appendNumber(out, pt.load);
    out += ",\"seed\":";
    appendNumber(out, double(pt.seed));
    out += ",\"offered_fpc\":";
    appendNumber(out, r.offeredFlitsPerCycle);
    out += ",\"accepted_fpc\":";
    appendNumber(out, r.acceptedFlitsPerCycle);
    out += ",\"avg_latency\":";
    appendNumber(out, r.avgLatencyCycles);
    out += ",\"p99_latency\":";
    appendNumber(out, r.p99LatencyCycles);
    out += ",\"avg_queueing\":";
    appendNumber(out, r.avgQueueingCycles);
    out += ",\"packets\":";
    appendNumber(out, double(r.packetsDelivered));
    out += ",\"in_flight\":";
    appendNumber(out, double(r.inFlightAtMeasureEnd));
    out += ",\"latency_overflow\":";
    appendNumber(out, double(r.latencyOverflowPackets));
    out += ",\"dropped\":";
    appendNumber(out, double(r.packetsDropped));
    out += ",\"fairness\":";
    appendNumber(out, r.fairness);
    out += '}';
    return out;
}

namespace {

std::string
snapshotPath(const std::string &dir, std::uint64_t key)
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.snap",
                  static_cast<unsigned long long>(key));
    return dir + "/" + name;
}

/** Scalar checkpointed evaluation of one point: resume from the
 *  point's snapshot when one exists, advance in checkpoint_cycles
 *  slices saving a snapshot after each, finish with run() (which
 *  aggregates over the absolute measurement window, so resumed and
 *  uninterrupted executions are bit-identical), and clean up. */
bool
runPointCheckpointed(const CampaignSpec &spec,
                     const sim::RunPoint &pt, sim::SimCache &cache,
                     const RunCampaignOptions &opt,
                     sim::PatternFactory const &make,
                     std::string_view desc, sim::SimResult *out)
{
    sim::SimConfig cfg = spec.cfg;
    cfg.injectionRate = pt.load;
    cfg.seed = pt.seed;
    std::uint64_t key = sim::SimCache::key(spec.sw, cfg, desc);
    if (cache.lookup(key, out))
        return true;

    sim::NetworkSim ns(spec.sw, cfg, make());
    std::string snap = snapshotPath(opt.snapshotDir, key);
    ns.loadSnapshotFile(snap); // no snapshot / stale config: fresh run

    net::Cycle end = cfg.warmupCycles + cfg.measureCycles;
    while (ns.now() + spec.checkpointCycles < end) {
        ns.advanceTo(ns.now() + spec.checkpointCycles);
        ns.saveSnapshotFile(snap);
        if (opt.cancelled && opt.cancelled())
            return false; // snapshot stays for the resume
    }
    *out = ns.run();
    cache.store(key, *out);
    std::error_code ec;
    std::filesystem::remove(snap, ec);
    return true;
}

} // namespace

CampaignOutcome
runCampaign(const CampaignSpec &spec, const RunCampaignOptions &opt)
{
    sim::SimCache &cache =
        opt.cache ? *opt.cache : sim::SimCache::global();
    sim::PatternFactory make = spec.patternFactory();
    std::vector<sim::RunPoint> pts = spec.points();

    CampaignOutcome outcome;
    outcome.pointsTotal = pts.size();
    sim::SimCache::Stats before = cache.stats();

    bool checkpointed =
        spec.checkpointCycles > 0 && !opt.snapshotDir.empty();
    std::string desc;
    if (checkpointed)
        desc = make()->descriptor();

    const std::size_t shard =
        opt.shardPoints ? opt.shardPoints : kDefaultShardPoints;

    for (std::size_t first = 0; first < pts.size(); first += shard) {
        if (opt.cancelled && opt.cancelled()) {
            outcome.cancelled = true;
            break;
        }
        std::size_t n = std::min(shard, pts.size() - first);
        std::vector<sim::RunPoint> sub(pts.begin() + first,
                                       pts.begin() + first + n);
        std::vector<sim::SimResult> results;
        if (checkpointed) {
            results.resize(n);
            bool aborted = false;
            for (std::size_t i = 0; i < n; ++i) {
                if (!runPointCheckpointed(spec, sub[i], cache, opt,
                                          make, desc, &results[i])) {
                    // Cancelled mid-point: emit the completed prefix
                    // of this shard, then stop.
                    results.resize(i);
                    sub.resize(i);
                    n = i;
                    aborted = true;
                    break;
                }
            }
            if (aborted)
                outcome.cancelled = true;
        } else {
            sim::CampaignOptions copt;
            copt.cache = &cache;
            results =
                sim::runPointsCached(spec.sw, spec.cfg, make, sub,
                                     copt);
        }
        if (n > 0) {
            std::vector<std::string> rows;
            rows.reserve(n);
            for (std::size_t i = 0; i < n; ++i)
                rows.push_back(
                    resultRow(first + i, sub[i], results[i]));
            outcome.pointsDone += n;
            if (opt.onRows)
                opt.onRows(first, std::move(rows));
        }
        if (outcome.cancelled)
            break;
    }

    sim::SimCache::Stats after = cache.stats();
    outcome.cacheDelta.hits = after.hits - before.hits;
    outcome.cacheDelta.misses = after.misses - before.misses;
    outcome.cacheDelta.diskHits = after.diskHits - before.diskHits;
    outcome.cacheDelta.stores = after.stores - before.stores;
    return outcome;
}

} // namespace hirise::svc
