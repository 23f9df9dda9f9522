/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: arbiter
 * decision rate, fabric arbitration cycles, and end-to-end simulated
 * cycles per second for each topology. These measure the tool, not
 * the paper's system; the table/figure binaries measure the system.
 *
 * Global operator new/delete are instrumented so every benchmark
 * reports a "heap_allocs_per_iter" counter: the arbitration and
 * simulation hot paths are required to be allocation-free in steady
 * state (see docs/HOTPATH.md), and this counter is the regression
 * guard for that property.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <new>

#include "arb/matrix_arbiter.hh"
#include "arb/sub_block_arbiter.hh"
#include "cmp/graph_transport.hh"
#include "cmp/system.hh"
#include "common/random.hh"
#include "fabric/fabric.hh"
#include "harness/experiments.hh"
#include "noc/graph_noc.hh"
#include "phys/model.hh"
#include "sim/network_sim.hh"
#include "traffic/pattern.hh"

using namespace hirise;

// ---------------------------------------------------------------------
// Heap-allocation instrumentation
// ---------------------------------------------------------------------

static std::uint64_t g_allocCount = 0;

// None of the replacements is inlined: GCC would otherwise see the
// malloc() inside operator new reach an operator delete, or free()
// reach a pointer from operator new, and warn (-Wmismatched-new-delete)
// though the pairs match.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    ++g_allocCount;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t size)
{
    ++g_allocCount;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

/** Measure @p body once per iteration and attach the allocation
 *  counter. The counter must be ~0 for steady-state hot paths. */
template <typename Fn>
void
runCounted(benchmark::State &state, Fn body)
{
    std::uint64_t allocs_before = g_allocCount;
    for (auto _ : state)
        body();
    std::uint64_t allocs = g_allocCount - allocs_before;
    state.counters["heap_allocs_per_iter"] = benchmark::Counter(
        static_cast<double>(allocs) /
        static_cast<double>(state.iterations()));
}

} // namespace

// ---------------------------------------------------------------------
// Arbiter core
// ---------------------------------------------------------------------

static void
BM_MatrixArbiterPick(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    arb::MatrixArbiter a(n);
    Rng rng(1);
    BitVec req(n);
    for (std::uint32_t i = 0; i < n; ++i)
        if (rng.bernoulli(0.5))
            req.set(i);
    runCounted(state, [&]() {
        auto w = a.pick(req);
        benchmark::DoNotOptimize(w);
        if (w != arb::MatrixArbiter::kNone)
            a.update(w);
    });
}
BENCHMARK(BM_MatrixArbiterPick)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

static void
BM_ClrgSubArbiter(benchmark::State &state)
{
    arb::ClrgSubArbiter sub(13, 64, 2);
    Rng rng(2);
    std::vector<arb::SubBlockRequest> reqs(13);
    for (std::uint32_t p = 0; p < 13; ++p) {
        reqs[p].valid = rng.bernoulli(0.5);
        reqs[p].primaryInput = static_cast<std::uint32_t>(
            rng.below(64));
    }
    runCounted(state, [&]() {
        auto w = sub.arbitrate(reqs);
        benchmark::DoNotOptimize(w);
    });
}
BENCHMARK(BM_ClrgSubArbiter);

// ---------------------------------------------------------------------
// Fabric layer
// ---------------------------------------------------------------------

namespace {

SwitchSpec
fabricSpec(bool hirise, std::uint32_t radix, ChannelAlloc alloc)
{
    SwitchSpec s;
    s.radix = radix;
    if (hirise) {
        s.topo = Topology::HiRise;
        s.layers = 4;
        s.channels = 4;
        s.arb = ArbScheme::Clrg;
        s.alloc = alloc;
    } else {
        s.topo = Topology::Flat2D;
        s.arb = ArbScheme::Lrg;
    }
    return s;
}

/**
 * Drive a fabric with random single-cycle traffic: every input
 * requests a random output at rate 0.5, grants are released the same
 * cycle (pure arbitration load, no connection holding).
 */
void
driveFabric(benchmark::State &state, const SwitchSpec &spec)
{
    auto fab = fabric::makeFabric(spec);
    const std::uint32_t n = spec.radix;
    Rng rng(7);
    // Pre-generate a bank of request vectors so the RNG is outside
    // the measured loop.
    constexpr std::uint32_t kBank = 64;
    std::vector<std::vector<std::uint32_t>> bank(
        kBank, std::vector<std::uint32_t>(n, fabric::kNoRequest));
    for (auto &req : bank) {
        for (std::uint32_t i = 0; i < n; ++i) {
            if (rng.bernoulli(0.5))
                req[i] = static_cast<std::uint32_t>(rng.below(n));
        }
    }

    std::uint32_t slot = 0;
    runCounted(state, [&]() {
        const BitVec &g = fab->arbitrate(bank[slot]);
        benchmark::DoNotOptimize(g.words());
        // Immediate release keeps every output contended next cycle.
        g.forEachSet([&](std::uint32_t i) {
            fab->release(i, bank[slot][i]);
        });
        slot = (slot + 1) % kBank;
    });
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

} // namespace

static void
BM_FabricArbitrate_Flat2d(benchmark::State &state)
{
    driveFabric(state,
                fabricSpec(false,
                           static_cast<std::uint32_t>(state.range(0)),
                           ChannelAlloc::InputBinned));
}
BENCHMARK(BM_FabricArbitrate_Flat2d)->Arg(64)->Arg(128)->Arg(256);

static void
BM_FabricArbitrate_HiRise(benchmark::State &state)
{
    auto alloc =
        static_cast<ChannelAlloc>(static_cast<int>(state.range(1)));
    driveFabric(state,
                fabricSpec(true,
                           static_cast<std::uint32_t>(state.range(0)),
                           alloc));
}
BENCHMARK(BM_FabricArbitrate_HiRise)
    ->ArgsProduct({{64, 128, 256},
                   {static_cast<int>(ChannelAlloc::InputBinned),
                    static_cast<int>(ChannelAlloc::OutputBinned),
                    static_cast<int>(ChannelAlloc::Priority)}});

/**
 * A radix-64, c = 4 CLRG Hi-Rise fabric at ~0.15 requests per input
 * per cycle whose grants hold their connection (and L2LC) for kHold
 * cycles before release — the held-channel regime of a real run,
 * which driveFabric's same-cycle release never reaches. Held inputs
 * do not request.
 */
static void
BM_FabricArbitrateHeld_HiRise(benchmark::State &state)
{
    const SwitchSpec spec =
        fabricSpec(true, 64, ChannelAlloc::InputBinned);
    auto fab = fabric::makeFabric(spec);
    const std::uint32_t n = spec.radix;
    constexpr std::uint32_t kHold = 4;
    Rng rng(11);
    constexpr std::uint32_t kBank = 64;
    std::vector<std::vector<std::uint32_t>> bank(
        kBank, std::vector<std::uint32_t>(n, fabric::kNoRequest));
    for (auto &req : bank) {
        for (std::uint32_t i = 0; i < n; ++i) {
            if (rng.bernoulli(0.15))
                req[i] = static_cast<std::uint32_t>(rng.below(n));
        }
    }

    std::vector<std::uint32_t> req(n), out(n, fabric::kNoRequest);
    std::vector<std::uint32_t> left(n, 0);
    std::uint32_t slot = 0;
    runCounted(state, [&]() {
        for (std::uint32_t i = 0; i < n; ++i)
            req[i] = out[i] == fabric::kNoRequest ? bank[slot][i]
                                                  : fabric::kNoRequest;
        const BitVec &g = fab->arbitrate(req);
        g.forEachSet([&](std::uint32_t i) {
            out[i] = req[i];
            left[i] = kHold;
        });
        for (std::uint32_t i = 0; i < n; ++i) {
            if (out[i] != fabric::kNoRequest && --left[i] == 0) {
                fab->release(i, out[i]);
                out[i] = fabric::kNoRequest;
            }
        }
        slot = (slot + 1) % kBank;
    });
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FabricArbitrateHeld_HiRise);

// ---------------------------------------------------------------------
// End-to-end simulator cycles
// ---------------------------------------------------------------------

namespace {

SwitchSpec
specFor(int topo)
{
    SwitchSpec s;
    if (topo == 0) {
        s.topo = Topology::Flat2D;
        s.arb = ArbScheme::Lrg;
    } else {
        s.topo = Topology::HiRise;
        s.layers = 4;
        s.channels = 4;
        s.arb = topo == 1 ? ArbScheme::LayerLrg : ArbScheme::Clrg;
    }
    s.radix = 64;
    return s;
}

} // namespace

static void
BM_NetworkSimCycle(benchmark::State &state)
{
    sim::SimConfig cfg;
    cfg.injectionRate = 0.15;
    cfg.denseStepping = state.range(1) != 0;
    auto spec = specFor(static_cast<int>(state.range(0)));
    sim::NetworkSim sim(spec, cfg,
                        std::make_shared<traffic::UniformRandom>(64));
    // Let VC/source-queue capacity reach steady state before counting
    // allocations (deques grow while backlog builds).
    for (int t = 0; t < 20000; ++t)
        sim.step();
    runCounted(state, [&]() { sim.step(); });
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
// Second arg: 0 = event-driven core, 1 = dense reference core.
BENCHMARK(BM_NetworkSimCycle)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1});

// ---------------------------------------------------------------------
// Whole-run throughput at low load (the event-driven core's target
// regime: most inputs idle most cycles, so active-set walks and idle
// fast-forward dominate the win). Items = simulated cycles, so
// items_per_second reads as simulated cycles per wall-clock second.
// ---------------------------------------------------------------------

namespace {

constexpr net::Cycle kLowLoadWarmup = 500;
constexpr net::Cycle kLowLoadMeasure = 20000;
/** Per-input injection rate for the low-load A/B runs. 0.01 keeps a
 *  radix-128 switch busy (~1.3 injections/cycle switch-wide) while
 *  leaving most inputs idle most cycles — the regime the event core
 *  targets. */
constexpr double kLowLoadRate = 0.01;

void
loadedRun(benchmark::State &state, Topology topo, double rate,
          net::Cycle measure, bool legacySatQueues = false)
{
    const auto radix = static_cast<std::uint32_t>(state.range(0));
    SwitchSpec spec;
    spec.radix = radix;
    if (topo == Topology::HiRise) {
        spec.topo = Topology::HiRise;
        spec.layers = 4;
        spec.channels = 4;
        spec.arb = ArbScheme::Clrg;
    } else {
        spec.topo = Topology::Flat2D;
        spec.arb = ArbScheme::Lrg;
    }
    sim::SimConfig cfg;
    cfg.injectionRate = rate;
    cfg.warmupCycles = kLowLoadWarmup;
    cfg.measureCycles = measure;
    cfg.denseStepping = state.range(1) != 0;
    cfg.legacySatQueues = legacySatQueues;
    for (auto _ : state) {
        sim::NetworkSim sim(
            spec, cfg, std::make_shared<traffic::UniformRandom>(radix));
        auto r = sim.run();
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * (kLowLoadWarmup + measure)));
}

} // namespace

static void
BM_LowLoadRun_HiRise(benchmark::State &state)
{
    loadedRun(state, Topology::HiRise, kLowLoadRate, kLowLoadMeasure);
}

static void
BM_LowLoadRun_Flat2d(benchmark::State &state)
{
    loadedRun(state, Topology::Flat2D, kLowLoadRate, kLowLoadMeasure);
}

/** Saturation A/B: guards the "event mode must not regress at high
 *  load" side of the trade (every input injects every cycle, so the
 *  injection wheel pops every input every cycle). */
static void
BM_SaturationRun_HiRise(benchmark::State &state)
{
    loadedRun(state, Topology::HiRise, 1.0, 5000);
}

/** Same saturated run with cfg.legacySatQueues pinning the
 *  materialized source queues, so the virtual-source-queue speedup is
 *  readable as BM_SaturationRun_HiRise over this entry. */
static void
BM_SaturationRun_HiRise_Legacy(benchmark::State &state)
{
    loadedRun(state, Topology::HiRise, 1.0, 5000, true);
}

/** Between saturation throughput and load 1 (load 0.5 is past the
 *  radix-128 switch's saturation): source queues grow every cycle, so
 *  materialized queues copy and store every backlog packet while
 *  virtual ones keep a count and a per-cycle injection log. */
static void
BM_OverSaturatedRun_HiRise(benchmark::State &state)
{
    loadedRun(state, Topology::HiRise, 0.5, 5000);
}

/** The same run with cfg.legacySatQueues pinning materialized
 *  queues. */
static void
BM_OverSaturatedRun_HiRise_Legacy(benchmark::State &state)
{
    loadedRun(state, Topology::HiRise, 0.5, 5000, true);
}

// Args: {radix, dense? 1 : 0}.
BENCHMARK(BM_LowLoadRun_HiRise)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LowLoadRun_Flat2d)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SaturationRun_HiRise)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SaturationRun_HiRise_Legacy)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OverSaturatedRun_HiRise)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OverSaturatedRun_HiRise_Legacy)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Closed-loop engines: the 64-core system of Table VI and the
// kilo-core mesh of section VI-E, one whole short run per iteration
// (construction included), single-threaded.
// ---------------------------------------------------------------------

namespace {

enum class CmpNet { Central2d, CentralHiRise, Butterfly };

void
BM_CmpSystemRun(benchmark::State &state, CmpNet net)
{
    for (auto _ : state) {
        cmp::SystemConfig cfg;
        auto per_core =
            cmp::assignMix(cmp::paperMixes()[7], cfg.numTiles); // mix 8
        std::unique_ptr<cmp::CmpSystem> sys;
        if (net == CmpNet::Butterfly) {
            sys = std::make_unique<cmp::CmpSystem>(
                [&](cmp::Transport::DeliverFn d) {
                    return std::make_unique<cmp::GraphTransport>(
                        std::make_shared<noc::FlattenedButterfly>(
                            4, 4, 4, 2.0),
                        std::move(d), 4, cfg.seed);
                },
                cfg, std::move(per_core));
        } else {
            const SwitchSpec spec =
                net == CmpNet::Central2d
                    ? harness::spec2d()
                    : harness::specHiRise(4, ArbScheme::Clrg);
            cfg.switchFreqGhz = phys::PhysModel().evaluate(spec).freqGhz;
            sys = std::make_unique<cmp::CmpSystem>(spec, cfg,
                                                   std::move(per_core));
        }
        auto r = sys->run(500, 2500);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * 3000));
}

void
BM_KiloCoreMesh(benchmark::State &state, bool hirise)
{
    const SwitchSpec router = hirise
                                  ? harness::specHiRise(4, ArbScheme::Clrg)
                                  : harness::spec2d(52); // 48 local + 4 mesh
    // The kilo-core study's mid load, 0.035 packets/node/ns.
    const double rate = 0.035 / phys::PhysModel().evaluate(router).freqGhz;
    for (auto _ : state) {
        // 4x4 routers, 4-flit packets, 4-packet input FIFOs, seed 1.
        noc::GraphNoc mesh(noc::LowRadixMesh::ofRouters(4, 4, router),
                           router, 4, 4, 1);
        auto r = mesh.run(rate, 200, 1000);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * 1200));
}

} // namespace

// Items = core cycles (CMP) or mesh cycles (kilo-core).
BENCHMARK_CAPTURE(BM_CmpSystemRun, 2d, CmpNet::Central2d)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CmpSystemRun, hirise, CmpNet::CentralHiRise)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CmpSystemRun, fb, CmpNet::Butterfly)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_KiloCoreMesh, hirise, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_KiloCoreMesh, flat, false)
    ->Unit(benchmark::kMillisecond);
