/**
 * @file
 * perfbench — the repository benchmark program (see ../README.md).
 *
 *   perfbench --workload paper_sweep|cmp_noc|serve_mix --seed N
 *             --seconds S --trace 0|1 --served PATH --work-dir DIR
 *             [--git SHA] [--inject-corruption]
 *   perfbench --length-split
 *
 * Prints the host/build context, every metric by name with its unit,
 * statistic and sample count, and as the last line the JSON result
 * object. Exits 0 when the run completed (a failed output check is
 * reported through "correct"/"failed", not the exit code).
 * --length-split prints the time split of each kind of simulated unit
 * at the benchmark's length and at the repository's (split.cc).
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/simd.hh"
#include "workloads.hh"

extern char **environ;

namespace {

using namespace perfbench;

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload paper_sweep|cmp_noc|"
                 "serve_mix --seed N --seconds S --trace 0|1\n"
                 "                 --served PATH --work-dir DIR "
                 "[--git SHA] [--inject-corruption]\n"
                 "       perfbench --length-split\n");
    return 2;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** CPU time the hypervisor stole and all CPU time so far, in jiffies
 *  summed over CPUs (first line of /proc/stat). */
std::pair<double, double>
cpuJiffies()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    double v = 0.0, total = 0.0, steal = 0.0;
    for (int i = 0; i < 8 && in >> v; ++i) { // user .. steal
        total += v;
        if (i == 7)
            steal = v;
    }
    return {steal, total};
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    std::string git = "unknown";
    bool split = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                std::exit(usage());
            }
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = value();
        else if (a == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::strtod(value().c_str(), nullptr);
        else if (a == "--trace")
            opt.trace = value() != "0";
        else if (a == "--served")
            opt.servedBinary = value();
        else if (a == "--work-dir")
            opt.workDir = value();
        else if (a == "--git")
            git = value();
        else if (a == "--inject-corruption")
            opt.injectCorruption = true;
        else if (a == "--length-split")
            split = true;
        else
            return usage();
    }
    if (!split && (opt.workDir.empty() || opt.servedBinary.empty() ||
                   !(opt.seconds > 0.0)))
        return usage();

    // Timings compare only between identical build types.
    const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    if (build_type != "Release" || !ndebug) {
        std::fprintf(stderr, "perfbench: refusing a '%s' build; the "
                             "benchmark is pinned to Release\n",
                     build_type.c_str());
        return 3;
    }

    // The benchmark measures the library's defaults: no HIRISE_* knob
    // of the calling environment (batch width, cache capacity or disk
    // tier, SIMD pin, ...) reaches this process or the daemon.
    std::vector<std::string> knobs;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "HIRISE_", 7) == 0)
            knobs.emplace_back(*e, std::strcspn(*e, "="));
    }
    for (const std::string &k : knobs)
        ::unsetenv(k.c_str());

    long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    opt.poolThreads = unsigned(nproc > 1 ? nproc - 1 : 1);
    // In-process campaigns (the serve_mix cross-checks) use the global
    // pool; size it like every other pool here.
    hirise::ThreadPool::setGlobalThreads(opt.poolThreads);

    std::printf("context workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%ld cpu=\"%s\" simd=%s build=%s pool=%u+1 "
                "git=%s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                int(opt.trace), nproc, cpuModel().c_str(),
                hirise::simd::tierName(hirise::simd::activeTier()),
                build_type.c_str(), opt.poolThreads, git.c_str());

    if (split) {
        lengthSplit(opt);
        return 0;
    }

    Checker check(opt.injectCorruption);
    Tracer tracer;
    Outcome out;
    const auto jiffies0 = cpuJiffies();
    if (opt.workload == "paper_sweep")
        out = paperSweep(opt, check, tracer);
    else if (opt.workload == "cmp_noc")
        out = cmpNoc(opt, check, tracer);
    else if (opt.workload == "serve_mix")
        out = serveMix(opt, check, tracer);
    else
        return usage();

    if (opt.trace) {
        std::string path = opt.workDir + "/trace-" + opt.workload +
                           "-seed" + std::to_string(opt.seed) + ".json";
        if (tracer.write(path))
            std::printf("trace %s (%zu spans)\n", path.c_str(),
                        tracer.size());
        else
            check.fail("writing the trace file");
    }

    // The timings are CPU times, which leave the hypervisor's steal
    // out, but a busy host still slows them a little through the cores
    // and caches it shares; the steal share shows how busy it was.
    const auto jiffies1 = cpuJiffies();
    const double total = jiffies1.second - jiffies0.second;
    std::printf("host cpu_steal_frac=%.4f (hypervisor steal over all "
                "CPU time during the run)\n",
                total > 0.0 ? (jiffies1.first - jiffies0.first) / total
                            : 0.0);

    const std::uint64_t attempted = std::max<std::uint64_t>(
        out.attempted, 1);
    const std::uint64_t failed =
        std::min<std::uint64_t>(check.failures(), attempted);
    out.report.print(stdout);
    std::printf("metric %-36s %16.6g %-6s (%llu/%llu operations, "
                "%llu checks)\n",
                "fail_frac", double(failed) / double(attempted), "ratio",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(check.checks()));
    std::printf("%s\n",
                out.report.json(failed == 0, attempted, failed).c_str());
    return 0;
}
