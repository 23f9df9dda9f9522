/**
 * @file
 * The three benchmark workloads. Each builds every input from the
 * seed, runs its fixed unit of work ("pass") repeatedly for the
 * requested seconds, checks outputs outside the timed phase, and
 * fills the end-to-end report (untraced) or the per-layer report
 * (traced).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "bench.hh"

namespace perfbench {

struct Outcome
{
    Report report;
    std::uint64_t attempted = 0; //!< points, system/mesh runs, jobs
};

Outcome paperSweep(const RunOptions &opt, Checker &check, Tracer &tracer);
Outcome cmpNoc(const RunOptions &opt, Checker &check, Tracer &tracer);
Outcome serveMix(const RunOptions &opt, Checker &check, Tracer &tracer);

/** Warm-up and measured cycles of one simulated unit. */
struct Length
{
    std::uint64_t warmup;
    std::uint64_t measure;
    std::uint64_t total() const { return warmup + measure; }
};

// The lengths the workloads simulate. lengthSplit() compares each with
// the repository's own (harness --quick) length.
constexpr Length kSweepLength{150, 600};   //!< paper_sweep points
constexpr Length kColdJobLength{200, 800}; //!< serve_mix cold points
constexpr Length kWarmJobLength{100, 400}; //!< serve_mix warm points
constexpr Length kCmpLength{2000, 10000};  //!< cmp_noc CMP systems
constexpr Length kMeshLength{500, 2500};   //!< cmp_noc kilo-core meshes
constexpr Length kGraphLength{500, 3000};  //!< cmp_noc GraphNoc runs

/** Print, per kind of simulated unit, the share of its time spent in
 *  fixed per-unit costs and in its inner layer, and its host time per
 *  simulated cycle, at the benchmark's length and at the repository's
 *  length (--length-split). */
void lengthSplit(const RunOptions &opt);

/** Passes run until @p seconds have elapsed since @p start, and at
 *  least @p min_passes. */
inline bool
morePasses(Clock::time_point start, double seconds, std::size_t done,
           std::size_t min_passes)
{
    return done < min_passes || secondsSince(start) < seconds;
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
