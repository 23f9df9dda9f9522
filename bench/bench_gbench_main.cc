/**
 * @file
 * Shared main for the google-benchmark suites. Replaces
 * BENCHMARK_MAIN() for two reasons:
 *
 * 1. The JSON context records how *this repo* was compiled
 *    ("hirise_build_type"), so baselines are never silently compared
 *    across build types.
 *
 * 2. The file reporter stamps "library_build_type" from this
 *    translation unit's NDEBUG instead of the installed
 *    libbenchmark's. The timing-loop machinery (State::KeepRunning
 *    and friends) is header-inlined into the suite, so the build mode
 *    that governs the measured numbers is the suite's own; Debian's
 *    libbenchmark .so is compiled without NDEBUG and stamps every run
 *    "debug" regardless, which would poison the build-type guards in
 *    scripts/run_microbench.sh and scripts/perf_smoke.py. Run entries
 *    ("benchmarks": [...]) are inherited from the stock JSONReporter,
 *    so their schema tracks the library.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <ctime>
#include <map>
#include <ostream>
#include <string>

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

class OwnBuildTypeJsonReporter : public benchmark::JSONReporter
{
  public:
    bool
    ReportContext(const Context &ctx) override
    {
        std::ostream &out = GetOutputStream();
        out << "{\n  \"context\": {\n";

        char when[64] = "";
        std::time_t now = std::time(nullptr);
        std::tm tmb{};
        localtime_r(&now, &tmb);
        std::strftime(when, sizeof(when), "%FT%T%z", &tmb);
        out << "    \"date\": \"" << when << "\",\n";
        out << "    \"host_name\": \"" << jsonEscape(ctx.sys_info.name)
            << "\",\n";
        out << "    \"executable\": \""
            << jsonEscape(Context::executable_name) << "\",\n";
        out << "    \"num_cpus\": " << ctx.cpu_info.num_cpus << ",\n";
        out << "    \"mhz_per_cpu\": "
            << static_cast<long>(ctx.cpu_info.cycles_per_second / 1e6 +
                                 0.5)
            << ",\n";
        out << "    \"cpu_scaling_enabled\": "
            << (ctx.cpu_info.scaling == benchmark::CPUInfo::ENABLED
                    ? "true"
                    : "false")
            << ",\n";
        out << "    \"caches\": [";
        for (std::size_t i = 0; i < ctx.cpu_info.caches.size(); ++i) {
            const auto &c = ctx.cpu_info.caches[i];
            out << (i ? "," : "") << "\n      {\n"
                << "        \"type\": \"" << jsonEscape(c.type)
                << "\",\n"
                << "        \"level\": " << c.level << ",\n"
                << "        \"size\": " << c.size << ",\n"
                << "        \"num_sharing\": " << c.num_sharing
                << "\n      }";
        }
        out << "\n    ],\n";
        out << "    \"load_avg\": [";
        for (std::size_t i = 0; i < ctx.cpu_info.load_avg.size(); ++i)
            out << (i ? "," : "") << ctx.cpu_info.load_avg[i];
        out << "],\n";
#ifdef NDEBUG
        out << "    \"library_build_type\": \"release\"";
#else
        out << "    \"library_build_type\": \"debug\"";
#endif
        if (const auto *cc = benchmark::internal::GetGlobalContext()) {
            for (const auto &kv : *cc)
                out << ",\n    \"" << jsonEscape(kv.first) << "\": \""
                    << jsonEscape(kv.second) << "\"";
        }
        out << "\n  },\n  \"benchmarks\": [\n";
        return true;
    }
};

} // namespace

int
main(int argc, char **argv)
{
#ifdef NDEBUG
    benchmark::AddCustomContext("hirise_build_type", "release");
#else
    benchmark::AddCustomContext("hirise_build_type", "debug");
#endif

    // The file reporter is only handed over when --benchmark_out was
    // given; otherwise RunSpecifiedBenchmarks would default its stream
    // to stdout and interleave JSON with the console report.
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0)
            has_out = true;
    }

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::ConsoleReporter display;
    OwnBuildTypeJsonReporter file;
    benchmark::RunSpecifiedBenchmarks(&display,
                                      has_out ? &file : nullptr);
    benchmark::Shutdown();
    return 0;
}
