#include "harness/bench_main.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/sim_cache.hh"

namespace hirise::harness {

namespace {

std::uint64_t
wallMicros()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

int
benchMain(int argc, char **argv,
          const std::vector<NamedExperiment> &experiments)
{
    ExperimentOptions opt;
    std::string csv_dir;
    std::string trace_path;
    std::string trace_chrome_path;
    std::string metrics_path;
    std::string metrics_csv_path;
    std::size_t trace_capacity = obs::CycleTracer::kDefaultCapacity;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            opt.quick = true;
        } else if (std::strcmp(argv[i], "--csv") == 0 &&
                   i + 1 < argc) {
            csv_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--seed") == 0 &&
                   i + 1 < argc) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            ThreadPool::setGlobalThreads(static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10)));
        } else if (std::strcmp(argv[i], "--trace") == 0 &&
                   i + 1 < argc) {
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--trace-chrome") == 0 &&
                   i + 1 < argc) {
            trace_chrome_path = argv[++i];
        } else if (std::strcmp(argv[i], "--trace-capacity") == 0 &&
                   i + 1 < argc) {
            trace_capacity = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--metrics") == 0 &&
                   i + 1 < argc) {
            metrics_path = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics-csv") == 0 &&
                   i + 1 < argc) {
            metrics_csv_path = argv[++i];
        } else {
            fatal("unknown argument '%s' (use --quick, --csv <dir>, "
                  "--seed <n>, --threads <n>, "
                  "--trace <file>, --trace-chrome <file>, "
                  "--trace-capacity <n>, --metrics <file>, "
                  "--metrics-csv <file>)",
                  argv[i]);
        }
    }

    bool want_trace = !trace_path.empty() || !trace_chrome_path.empty();
    bool want_metrics =
        !metrics_path.empty() || !metrics_csv_path.empty();
    auto &tracer = obs::CycleTracer::global();
    if (want_trace)
        tracer.enable(trace_capacity);
    else if (want_metrics)
        obs::setEnabled(true); // metrics without the event ring

    auto &registry = obs::MetricsRegistry::global();
    for (const auto &e : experiments) {
        std::uint32_t name_id = 0;
        if (obs::on()) [[unlikely]] {
            name_id = tracer.internName(e.name);
            tracer.recordAt(wallMicros(), obs::Ev::ExpBegin, name_id);
        }
        auto t0 = std::chrono::steady_clock::now();

        Table t = e.fn(opt);

        double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (obs::on()) [[unlikely]] {
            tracer.recordAt(wallMicros(), obs::Ev::ExpEnd, name_id);
            registry.gauge("harness." + e.name + ".wall_ms")
                .set(wall_ms);
            registry.gauge("pool.queue_depth")
                .set(static_cast<double>(
                    ThreadPool::global().pendingTasks()));
        }
        t.print();
        if (!csv_dir.empty())
            t.writeCsv(csv_dir + "/" + e.name + ".csv");
    }

    // Campaign-cache accounting, e.g. for the CI warm-cache check:
    // printed when the disk tier is live or on explicit request.
    auto &cache = sim::SimCache::global();
    auto s = cache.stats();
    if (cache.diskEnabled() ||
        std::getenv("HIRISE_SIMCACHE_STATS") != nullptr) {
        std::printf("simcache: hits=%llu misses=%llu disk_hits=%llu "
                    "stores=%llu hit_rate=%.1f%%\n",
                    static_cast<unsigned long long>(s.hits),
                    static_cast<unsigned long long>(s.misses),
                    static_cast<unsigned long long>(s.diskHits),
                    static_cast<unsigned long long>(s.stores),
                    100.0 * s.hitRate());
    }

    if (want_metrics) {
        registry.gauge("simcache.hits")
            .set(static_cast<double>(s.hits));
        registry.gauge("simcache.misses")
            .set(static_cast<double>(s.misses));
        registry.gauge("simcache.disk_hits")
            .set(static_cast<double>(s.diskHits));
        registry.gauge("simcache.stores")
            .set(static_cast<double>(s.stores));
        if (!metrics_path.empty() &&
            !registry.writeJsonFile(metrics_path))
            warn("cannot write metrics JSON to '%s'",
                 metrics_path.c_str());
        if (!metrics_csv_path.empty() &&
            !registry.writeCsvFile(metrics_csv_path))
            warn("cannot write metrics CSV to '%s'",
                 metrics_csv_path.c_str());
    }
    if (!trace_path.empty() && !tracer.exportJsonl(trace_path))
        warn("cannot write trace JSONL to '%s'", trace_path.c_str());
    if (!trace_chrome_path.empty() &&
        !tracer.exportChrome(trace_chrome_path))
        warn("cannot write Chrome trace to '%s'",
             trace_chrome_path.c_str());
    return 0;
}

} // namespace hirise::harness
