/**
 * @file
 * Experiment runners: one function per paper table/figure, shared by
 * the bench binaries, the examples, and the regression tests. Each
 * returns a Table whose rows interleave the paper's published values
 * with our measured ones.
 */

#ifndef HIRISE_HARNESS_EXPERIMENTS_HH
#define HIRISE_HARNESS_EXPERIMENTS_HH

#include <vector>

#include "common/spec.hh"
#include "common/table.hh"
#include "phys/model.hh"
#include "sim/sweep.hh"

namespace hirise::harness {

/** Knobs for experiment duration (quick mode for CI/tests). */
struct ExperimentOptions
{
    bool quick = false; //!< first member: ExperimentOptions{true}
    std::uint64_t seed = 1;

    sim::SimConfig
    simConfig() const
    {
        sim::SimConfig cfg;
        cfg.warmupCycles = quick ? 2000 : 10000;
        cfg.measureCycles = quick ? 8000 : 50000;
        cfg.seed = seed;
        return cfg;
    }
};

/** The five standard 64-radix switch configurations of Table IV. */
SwitchSpec spec2d(std::uint32_t radix = 64);
SwitchSpec specFolded(std::uint32_t radix = 64,
                      std::uint32_t layers = 4);
SwitchSpec specHiRise(std::uint32_t channels,
                      ArbScheme arb = ArbScheme::LayerLrg,
                      std::uint32_t radix = 64,
                      std::uint32_t layers = 4);

/** Measured uniform-random saturation throughput in Tbps (simulated
 *  flits/cycle at saturation x modeled frequency x flit width). */
double uniformSaturationTbps(const SwitchSpec &spec,
                             const ExperimentOptions &opt);

// -- Tables -----------------------------------------------------------
Table table1(const ExperimentOptions &opt);  //!< 2D vs folded
Table table4(const ExperimentOptions &opt);  //!< channel multiplicity
Table table5(const ExperimentOptions &opt);  //!< arbitration variants
Table table6(const ExperimentOptions &opt);  //!< application speedups

// -- Figures ----------------------------------------------------------
Table fig9a(const ExperimentOptions &opt); //!< frequency vs radix
Table fig9b(const ExperimentOptions &opt); //!< frequency vs layers
Table fig9c(const ExperimentOptions &opt); //!< energy vs radix
Table fig10(const ExperimentOptions &opt); //!< latency vs load, UR
Table fig11a(const ExperimentOptions &opt); //!< hotspot per-input lat.
Table fig11b(const ExperimentOptions &opt); //!< UR throughput vs load
Table fig11c(const ExperimentOptions &opt); //!< adversarial throughput
Table fig12(const ExperimentOptions &opt); //!< TSV pitch sensitivity

// -- Extensions beyond the paper's figures ----------------------------
/** Section VI-B pathological inter-layer corner case. */
Table cornerInterLayer(const ExperimentOptions &opt);
/** Ablation: CLRG class-count sensitivity under hotspot. */
Table ablateClassCount(const ExperimentOptions &opt);
/** Ablation: channel-allocation policies under UR and hotspot. */
Table ablateChannelAlloc(const ExperimentOptions &opt);
/** Headline abstract claims, recomputed. */
Table headlineClaims(const ExperimentOptions &opt);
/** Ablation: VC count and buffer depth sensitivity. */
Table ablateBuffers(const ExperimentOptions &opt);
/** Error bars: saturation throughput across seeds. */
Table seedSensitivity(const ExperimentOptions &opt);
/** Extension: throughput degradation under L2LC (TSV) failures. */
Table faultTolerance(const ExperimentOptions &opt);
/** Extension: closed-loop throughput vs. fault-schedule channel
 *  failures, cross-checked against the degraded MWM fluid bound. */
Table degradation(const ExperimentOptions &opt);
/** Companion curve family: avg/p99 packet latency for the same
 *  failed-channel scenarios across sub-saturation offered loads
 *  (E-A6 extension, EXPERIMENTS.md). */
Table degradationLatency(const ExperimentOptions &opt);
/** Section VI-E: kilo-core mesh of Hi-Rise switches vs 2D routers. */
Table kiloCore(const ExperimentOptions &opt);
/** Section VI-E discussion: energy/latency vs mesh and flattened
 *  butterfly on a 64-core chip. */
Table discussion(const ExperimentOptions &opt);
/** Section VI-E discussion: system speedup over a flattened-
 *  butterfly interconnect (paper ~13%). */
Table discussionSpeedup(const ExperimentOptions &opt);
/** Scheduler matrix (flat 2D crossbar): every single-stage scheduler
 *  (LRG, iSLIP, PIM, wavefront) x every analytic traffic pattern,
 *  throughput reported against the offline MWM fluid bound. */
Table schedThroughput(const ExperimentOptions &opt);
Table schedLatency(const ExperimentOptions &opt);
Table schedFairness(const ExperimentOptions &opt);

} // namespace hirise::harness

#endif // HIRISE_HARNESS_EXPERIMENTS_HH
