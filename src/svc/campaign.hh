/**
 * @file
 * Campaign execution for the service layer: evaluate a CampaignSpec's
 * (load, seed) grid through the shared SimCache path
 * (sim::runPointsCached) and stream results back incrementally as
 * serialized JSON rows in deterministic point order.
 *
 * The byte-identity contract (docs/SERVICE.md): row i of a campaign
 * depends only on (spec, i). Rows carry no job id, no timestamps, no
 * daemon state, and every number is spelled through the canonical
 * svc::appendNumber, so the daemon's streamed bytes equal a direct
 * in-process evaluation of the same spec — including after a kill and
 * resume, because completed points come back from the disk SimCache
 * and an in-progress point resumes from its PR-9 snapshot.
 */

#ifndef HIRISE_SVC_CAMPAIGN_HH
#define HIRISE_SVC_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/sim_cache.hh"
#include "sim/sweep.hh"
#include "svc/campaign_spec.hh"

namespace hirise::svc {

/**
 * The canonical serialized result row for point @p index of
 * @p spec's grid: one compact JSON object, fixed member order,
 * canonical number spellings. This is THE row format — the daemon,
 * the client, the smoke test, and the benchmark all compare these
 * bytes directly.
 */
std::string resultRow(std::size_t index, const sim::RunPoint &pt,
                      const sim::SimResult &r);

/** Points per streaming shard when RunCampaignOptions::shardPoints
 *  is 0; the daemon's svc.points_inflight gauge uses the same value. */
constexpr std::size_t kDefaultShardPoints = 16;

/** Execution knobs for runCampaign (wired from daemon flags/env). */
struct RunCampaignOptions
{
    /** Result cache (null = SimCache::global()). */
    sim::SimCache *cache = nullptr;
    /** Directory for per-point PR-9 snapshots; checkpointing is live
     *  only when this is set AND spec.checkpointCycles > 0. */
    std::string snapshotDir;
    /** Points per streaming shard: each shard runs through
     *  runPointsCached as one unit, then its rows are emitted and the
     *  cancel flag is polled. 0 = kDefaultShardPoints. */
    std::size_t shardPoints = 0;
    /** Polled between shards (and between checkpoint slices on the
     *  checkpointed path); returning true abandons remaining work. */
    std::function<bool()> cancelled;
    /** Called once per completed shard with the index of its first
     *  row and the serialized rows, in order. */
    std::function<void(std::size_t first,
                       std::vector<std::string> rows)>
        onRows;
};

struct CampaignOutcome
{
    std::size_t pointsTotal = 0;
    std::size_t pointsDone = 0; //!< rows emitted (prefix of the grid)
    bool cancelled = false;
    /** Cache activity attributable to this campaign (stats delta over
     *  the run; valid because one dispatcher runs jobs serially). */
    sim::SimCache::Stats cacheDelta;
};

/**
 * Evaluate @p spec's full grid in order, emitting rows shard by
 * shard. Points run through sim::runPointsCached (warm SimCache, one
 * pool task per miss) unless the spec requests checkpointing, in which
 * case each point runs scalar with a snapshot saved every
 * spec.checkpointCycles cycles under opt.snapshotDir (resumed
 * automatically when a snapshot for the point already exists, deleted
 * on point completion). Both paths produce bit-identical SimResults.
 */
CampaignOutcome runCampaign(const CampaignSpec &spec,
                            const RunCampaignOptions &opt);

} // namespace hirise::svc

#endif // HIRISE_SVC_CAMPAIGN_HH
