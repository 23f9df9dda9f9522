/**
 * @file
 * Shared main() for the per-table/per-figure bench binaries.
 * Supports:
 *   --quick                shorter simulations (CI-friendly)
 *   --csv <dir>            also write each table as CSV into <dir>
 *   --seed <n>             change the simulation seed
 *   --threads <n>          size the global worker pool
 *   --trace <file>         record cycle events, export JSONL
 *   --trace-chrome <file>  also export Chrome trace_event JSON
 *   --trace-capacity <n>   ring size in events (default 1M)
 *   --metrics <file>       export the metrics registry as JSON
 *   --metrics-csv <file>   export the metrics registry as CSV
 */

#ifndef HIRISE_HARNESS_BENCH_MAIN_HH
#define HIRISE_HARNESS_BENCH_MAIN_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/experiments.hh"

namespace hirise::harness {

using ExperimentFn = std::function<Table(const ExperimentOptions &)>;

struct NamedExperiment
{
    std::string name; //!< used for the CSV file name
    ExperimentFn fn;
};

/** Parse flags, run every experiment, print (and optionally CSV). */
int benchMain(int argc, char **argv,
              const std::vector<NamedExperiment> &experiments);

} // namespace hirise::harness

#endif // HIRISE_HARNESS_BENCH_MAIN_HH
