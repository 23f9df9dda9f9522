/**
 * @file
 * google-benchmark suite for the campaign engine: the persistent
 * one-FIFO pool against the old spawn-per-call fork-join
 * parallelMap, cold- vs warm-cache load sweeps, and serial vs
 * speculative saturation search. These quantify the campaign-layer
 * claims in docs/HOTPATH.md; bench_microperf covers the per-cycle
 * simulation hot path.
 */

#include <benchmark/benchmark.h>

#include <numeric>
#include <thread>
#include <vector>

#include "common/parallel.hh"
#include "common/thread_pool.hh"
#include "sim/sweep.hh"
#include "traffic/pattern.hh"

using namespace hirise;

namespace {

/** The pre-campaign parallelMap: spawn max_threads std::threads per
 *  call, strided item assignment, join all. Kept here verbatim as the
 *  baseline the persistent pool replaces. */
template <typename T, typename Fn>
auto
spawnPerCallMap(const std::vector<T> &items, Fn fn,
                unsigned max_threads = 0)
    -> std::vector<std::invoke_result_t<Fn, const T &>>
{
    using R = std::invoke_result_t<Fn, const T &>;
    std::vector<R> out(items.size());
    unsigned hw = std::thread::hardware_concurrency();
    unsigned n = max_threads ? max_threads : (hw ? hw : 1);
    n = std::min<unsigned>(n, static_cast<unsigned>(items.size()));
    if (n <= 1) {
        for (std::size_t i = 0; i < items.size(); ++i)
            out[i] = fn(items[i]);
        return out;
    }
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (unsigned t = 0; t < n; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t i = t; i < items.size(); i += n)
                out[i] = fn(items[i]);
        });
    }
    for (auto &th : threads)
        th.join();
    return out;
}

sim::SimConfig
quickCfg()
{
    sim::SimConfig cfg;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 1000;
    cfg.seed = 7;
    return cfg;
}

SwitchSpec
hirise64()
{
    SwitchSpec s;
    s.topo = Topology::HiRise;
    s.radix = 64;
    s.layers = 4;
    s.channels = 4;
    s.arb = ArbScheme::Clrg;
    return s;
}

sim::PatternFactory
uniform64()
{
    return [] {
        return std::make_shared<traffic::UniformRandom>(64);
    };
}

std::vector<double>
sweepLoads()
{
    std::vector<double> loads;
    for (int i = 1; i <= 12; ++i)
        loads.push_back(0.02 * i);
    return loads;
}

// ---------------------------------------------------------------------
// Pool dispatch overhead: many tiny tasks expose per-task dispatch
// cost vs the old per-call thread spawn. Note spawnPerCallMap
// degenerates to a plain serial loop when hardware_concurrency is 1,
// so this comparison is only meaningful on a multi-core host.
// ---------------------------------------------------------------------

void
BM_SpawnPerCallMap_TinyTasks(benchmark::State &state)
{
    std::vector<int> items(256);
    std::iota(items.begin(), items.end(), 0);
    for (auto _ : state) {
        auto out = spawnPerCallMap(
            items, [](const int &x) { return x * x; });
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_SpawnPerCallMap_TinyTasks)->Unit(benchmark::kMicrosecond);

void
BM_PooledParallelMap_TinyTasks(benchmark::State &state)
{
    ThreadPool pool(0);
    std::vector<int> items(256);
    std::iota(items.begin(), items.end(), 0);
    for (auto _ : state) {
        auto out = parallelMap(
            items, [](const int &x) { return x * x; }, 0, &pool);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_PooledParallelMap_TinyTasks)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------
// Campaign workloads: a figure-style load sweep, serial vs pool vs
// warm cache.
// ---------------------------------------------------------------------

void
BM_LoadSweep_Serial(benchmark::State &state)
{
    auto loads = sweepLoads();
    for (auto _ : state) {
        sim::SimCache cache(64); // fresh: every point simulates
        sim::CampaignOptions opt;
        opt.cache = &cache;
        opt.maxThreads = 1;
        auto pts = sim::loadSweep(hirise64(), quickCfg(), uniform64(),
                                  loads, opt);
        benchmark::DoNotOptimize(pts);
    }
}
BENCHMARK(BM_LoadSweep_Serial)->Unit(benchmark::kMillisecond);

void
BM_LoadSweep_PoolColdCache(benchmark::State &state)
{
    ThreadPool pool(0);
    auto loads = sweepLoads();
    for (auto _ : state) {
        sim::SimCache cache(64);
        sim::CampaignOptions opt;
        opt.pool = &pool;
        opt.cache = &cache;
        auto pts = sim::loadSweep(hirise64(), quickCfg(), uniform64(),
                                  loads, opt);
        benchmark::DoNotOptimize(pts);
    }
}
BENCHMARK(BM_LoadSweep_PoolColdCache)->Unit(benchmark::kMillisecond);

void
BM_LoadSweep_WarmCache(benchmark::State &state)
{
    ThreadPool pool(0);
    auto loads = sweepLoads();
    sim::SimCache cache(64);
    sim::CampaignOptions opt;
    opt.pool = &pool;
    opt.cache = &cache;
    // Populate once; the measured loop is pure cache service.
    auto warmup = sim::loadSweep(hirise64(), quickCfg(), uniform64(),
                                 loads, opt);
    benchmark::DoNotOptimize(warmup);
    for (auto _ : state) {
        auto pts = sim::loadSweep(hirise64(), quickCfg(), uniform64(),
                                  loads, opt);
        benchmark::DoNotOptimize(pts);
    }
}
BENCHMARK(BM_LoadSweep_WarmCache)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Saturation search: serial bisection vs speculative tree.
// ---------------------------------------------------------------------

void
BM_SaturationSearch_Serial(benchmark::State &state)
{
    for (auto _ : state) {
        // saturationLoad memoizes through the global cache; a private
        // fresh cache per iteration would hide nothing here because
        // the serial path IS the simulations. Use speculative with
        // depth 1 and a fresh cache for an exact serial schedule.
        sim::SimCache cache(256);
        sim::CampaignOptions opt;
        opt.cache = &cache;
        opt.maxThreads = 1;
        double sat = sim::saturationLoadSpeculative(
            hirise64(), quickCfg(), uniform64(), 0.0, 0.5, 8, 1, opt);
        benchmark::DoNotOptimize(sat);
    }
}
BENCHMARK(BM_SaturationSearch_Serial)->Unit(benchmark::kMillisecond);

void
BM_SaturationSearch_Speculative(benchmark::State &state)
{
    ThreadPool pool(0);
    for (auto _ : state) {
        sim::SimCache cache(256);
        sim::CampaignOptions opt;
        opt.pool = &pool;
        opt.cache = &cache;
        double sat = sim::saturationLoadSpeculative(
            hirise64(), quickCfg(), uniform64(), 0.0, 0.5, 8, 2, opt);
        benchmark::DoNotOptimize(sat);
    }
}
BENCHMARK(BM_SaturationSearch_Speculative)->Unit(benchmark::kMillisecond);

} // namespace

// main() is bench_gbench_main.cc (records hirise_build_type).
