/**
 * @file
 * Load sweeps and saturation-throughput measurement built on
 * NetworkSim; the measurement methodology behind Tables I/IV/V and
 * Figs 10/11.
 *
 * Campaign-scale runs (figure suites, seed sweeps, bisections) go
 * through the shared campaign pool (common/thread_pool.hh) and
 * the content-addressed result cache (sim/sim_cache.hh): every
 * evaluation is a pure function of (spec, cfg, pattern, seed), so
 * parallel and cached execution is bit-identical to serial execution.
 */

#ifndef HIRISE_SIM_SWEEP_HH
#define HIRISE_SIM_SWEEP_HH

#include <functional>
#include <vector>

#include "common/thread_pool.hh"
#include "sim/network_sim.hh"
#include "sim/sim_cache.hh"

namespace hirise::sim {

/** Factory so every run gets a fresh, independently-seeded pattern. */
using PatternFactory =
    std::function<std::shared_ptr<traffic::TrafficPattern>()>;

/** Execution knobs threaded through campaign-level entry points. */
struct CampaignOptions
{
    /** Pool for parallel evaluation (null = ThreadPool::global()). */
    ThreadPool *pool = nullptr;
    /** Result cache (null = SimCache::global()). */
    SimCache *cache = nullptr;
    /** Force a serial loop when 1 (parallelMap semantics). */
    unsigned maxThreads = 0;
};

struct SweepPoint
{
    double load = 0.0; //!< packets/input/cycle offered
    SimResult result;
};

/** One cached evaluation request for runPointsCached: a (load, seed)
 *  point of a common (spec, cfg, pattern) family. */
struct RunPoint
{
    double load = 0.0;
    std::uint64_t seed = 0;
};

/**
 * Evaluate many (load, seed) points of one (spec, cfg, pattern)
 * family, memoized through @p opt.cache. Each cache miss is one pool
 * task running a scalar NetworkSim. Results are index-ordered and
 * deterministic for any thread count.
 */
std::vector<SimResult>
runPointsCached(const SwitchSpec &spec, const SimConfig &base,
                const PatternFactory &make,
                const std::vector<RunPoint> &pts,
                const CampaignOptions &opt = {});

/** Run one simulation at the given load (always executes). */
SimResult runAtLoad(const SwitchSpec &spec, const SimConfig &base,
                    const PatternFactory &make, double load);

/** As runAtLoad, but memoized: a one-point runPointsCached through
 *  @p cache (null = the global cache), run in place on a miss. */
SimResult runAtLoadCached(const SwitchSpec &spec, const SimConfig &base,
                          const PatternFactory &make, double load,
                          SimCache *cache = nullptr);

/** Simulate each load point, in parallel through the campaign pool.
 *  Results are index-ordered and bit-identical for any thread count. */
std::vector<SweepPoint>
loadSweep(const SwitchSpec &spec, const SimConfig &base,
          const PatternFactory &make, const std::vector<double> &loads,
          const CampaignOptions &opt);

/** Convenience overload with default campaign options. */
std::vector<SweepPoint>
loadSweep(const SwitchSpec &spec, const SimConfig &base,
          const PatternFactory &make, const std::vector<double> &loads);

/**
 * Saturation throughput in accepted flits/cycle: drive the switch at
 * the maximum offered load (1 packet/input/cycle) and measure the
 * accepted rate, which plateaus at saturation for open-loop traffic.
 */
double saturationFlitsPerCycle(const SwitchSpec &spec,
                               const SimConfig &base,
                               const PatternFactory &make);

/**
 * Saturation offered load (packets/input/cycle): smallest load whose
 * accepted rate falls below 98% of offered, found by bisection. Used
 * for "80% of saturation" style experiments (Fig 11a).
 */
double saturationLoad(const SwitchSpec &spec, const SimConfig &base,
                      const PatternFactory &make, double lo = 0.0,
                      double hi = 1.0, int iters = 12);

/**
 * Speculative bisection: same answer as saturationLoad (bit-exact; the
 * midpoints are produced by the identical 0.5*(lo+hi) recursion), but
 * each round evaluates the full depth-@p spec_depth speculation tree
 * of candidate midpoints in parallel through the pool, then walks the
 * precomputed verdicts. Depth d retires d bisection steps per round
 * at the cost of 2^d - 1 simulations, cutting the critical path from
 * @p iters sequential sims to ceil(iters / d) rounds; with the shared
 * cache, repeated searches are nearly free.
 */
double saturationLoadSpeculative(const SwitchSpec &spec,
                                 const SimConfig &base,
                                 const PatternFactory &make,
                                 double lo = 0.0, double hi = 1.0,
                                 int iters = 12, int spec_depth = 2,
                                 const CampaignOptions &opt = {});

/** Convert flits/cycle to Tbps at the given clock and flit width. */
double toTbps(double flits_per_cycle, double freq_ghz,
              std::uint32_t flit_bits);

/** Convert flits/cycle to packets/ns. */
double toPacketsPerNs(double flits_per_cycle, double freq_ghz,
                      std::uint32_t packet_len);

} // namespace hirise::sim

#endif // HIRISE_SIM_SWEEP_HH
