/**
 * @file
 * Point families and the point-level replay shared by the workloads
 * that simulate single switches (paper_sweep, and serve_mix's cold
 * jobs). The replay evaluates exactly the points a campaign call
 * evaluates, on the path sim::runPointsCached takes: the same SimCache
 * key/lookup/store sequence, the same lane groups (BatchSim runs of up
 * to batchReplicas() lanes above NetworkSim::kInjHeapMaxRate, scalar
 * NetworkSim runs otherwise), the same parallelMap dispatch. Each
 * simulator call is timed, and the traced replay hands every simulator
 * a forwarding fabric to count fabric calls.
 */

#ifndef PERFBENCH_POINTS_HH
#define PERFBENCH_POINTS_HH

#include <string>
#include <vector>

#include "bench.hh"
#include "sim/sim_cache.hh"
#include "sim/sweep.hh"

namespace perfbench {

/** One (switch, base config, traffic pattern) point family. */
struct Family
{
    std::string label;
    hirise::SwitchSpec spec;
    hirise::sim::SimConfig cfg;
    hirise::sim::PatternFactory make;

    std::uint64_t
    portCyclesPerPoint() const
    {
        return std::uint64_t(spec.radix) *
               (cfg.warmupCycles + cfg.measureCycles);
    }
};

/** The simulator regime of one simulator call on the campaign path. */
enum Regime
{
    kLow, //!< scalar event core, at or below NetworkSim::kInjHeapMaxRate
    kMid, //!< a BatchSim lane group with a lane below load 1 (or a
          //!< lone scalar point there)
    kSat, //!< a BatchSim lane group saturated in every lane (load >= 1,
          //!< virtual source queues), or a lone scalar point there
    kRegimes
};

/** Fabric kinds with their own per-call metric ("" = none). */
std::string fabricKind(const hirise::SwitchSpec &spec);

/** Counters of one replay (one phase of the traced run). */
struct ReplayStats
{
    Samples callSec[kRegimes]; //!< per simulator call
    double portCycles[kRegimes] = {};
    Samples pointSec; //!< per simulated point: its call's seconds / lanes
    double callSecSum = 0.0;
    double busySec = 0.0;     //!< wall time inside evalPoints
    std::uint64_t points = 0; //!< simulated (cache misses)
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    double lookupNs = 0.0;
    double storeNs = 0.0;
    std::uint64_t stores = 0;
    std::uint64_t fabricCalls = 0;
    double fabricNs = 0.0;
    /** Per fabric kind: calls and ns. */
    std::map<std::string, std::pair<std::uint64_t, double>> byKind;
};

/** Replays campaign calls on the campaign's own simulator path. */
class Replayer
{
  public:
    /** @p tracer non-null = traced replay: fabrics wrapped, cache
     *  calls timed, one span per simulator call. */
    Replayer(hirise::ThreadPool &pool, Tracer *tracer)
        : pool_(pool), tracer_(tracer)
    {}

    /** As sim::runPointsCached(f.spec, f.cfg, f.make, pts): probe the
     *  cache for every point, simulate the misses in the same lane
     *  groups in parallel, store them; returns every point's result. */
    std::vector<hirise::sim::SimResult>
    evalPoints(const Family &f,
               const std::vector<hirise::sim::RunPoint> &pts,
               std::uint64_t job_id);

    const ReplayStats &stats() const { return stats_; }

  private:
    hirise::ThreadPool &pool_;
    Tracer *tracer_;
    hirise::sim::SimCache cache_;
    ReplayStats stats_;
    std::mutex mu_; //!< guards stats_ updates from pool tasks
};

/** Per-layer metrics of the point layers from an untraced replay
 *  (@p plain: simulator timings, parallel efficiency over
 *  @p busy_threads) and a traced one (@p traced: fabric and cache
 *  counters). */
void pointLayerMetrics(const ReplayStats &plain,
                       const ReplayStats &traced, unsigned busy_threads,
                       std::map<std::string, double> &out);

/** Simulate one point directly: scalar NetworkSim, no cache. */
hirise::sim::SimResult directRun(const Family &f,
                                 const hirise::sim::RunPoint &pt);

} // namespace perfbench

#endif // PERFBENCH_POINTS_HH
