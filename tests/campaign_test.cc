/**
 * @file
 * Campaign-engine determinism tests: the same load sweep and
 * saturation search must produce bit-identical results for any pool
 * size (1, 2, 8), and the speculative bisection must return exactly
 * the serial bisection's answer on the paper's switch configurations.
 * Also pins the service layer's default streaming shard.
 */

#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "sim/sweep.hh"
#include "svc/campaign.hh"
#include "traffic/pattern.hh"

namespace hirise {
namespace {

sim::SimConfig
quickCfg(std::uint64_t seed = 7)
{
    sim::SimConfig cfg;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 1000;
    cfg.seed = seed;
    return cfg;
}

SwitchSpec
flat64()
{
    SwitchSpec s;
    s.topo = Topology::Flat2D;
    s.radix = 64;
    s.arb = ArbScheme::Lrg;
    return s;
}

SwitchSpec
hirise64(std::uint32_t channels, ArbScheme arb = ArbScheme::Clrg)
{
    SwitchSpec s;
    s.topo = Topology::HiRise;
    s.radix = 64;
    s.layers = 4;
    s.channels = channels;
    s.arb = arb;
    return s;
}

sim::PatternFactory
uniformFactory(std::uint32_t radix)
{
    return [radix] {
        return std::make_shared<traffic::UniformRandom>(radix);
    };
}

void
expectBitIdentical(const sim::SimResult &a, const sim::SimResult &b)
{
    EXPECT_EQ(a.offeredFlitsPerCycle, b.offeredFlitsPerCycle);
    EXPECT_EQ(a.acceptedFlitsPerCycle, b.acceptedFlitsPerCycle);
    EXPECT_EQ(a.avgLatencyCycles, b.avgLatencyCycles);
    EXPECT_EQ(a.p99LatencyCycles, b.p99LatencyCycles);
    EXPECT_EQ(a.avgQueueingCycles, b.avgQueueingCycles);
    EXPECT_EQ(a.fairness, b.fairness);
    EXPECT_EQ(a.packetsDelivered, b.packetsDelivered);
    EXPECT_EQ(a.inFlightAtMeasureEnd, b.inFlightAtMeasureEnd);
    EXPECT_EQ(a.latencyOverflowPackets, b.latencyOverflowPackets);
    EXPECT_EQ(a.perInputLatency, b.perInputLatency);
    EXPECT_EQ(a.perInputThroughput, b.perInputThroughput);
}

TEST(Campaign, LoadSweepIsThreadCountInvariant)
{
    const std::vector<double> loads{0.05, 0.1, 0.15, 0.2, 0.25};
    const auto spec = hirise64(4);
    const auto cfg = quickCfg();

    // Pool size 1 is the reference; 2 and 8 must match bit for bit.
    // Each run gets a private cache so every point actually executes.
    std::vector<std::vector<sim::SweepPoint>> runs;
    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        sim::SimCache cache(64);
        sim::CampaignOptions opt;
        opt.pool = &pool;
        opt.cache = &cache;
        runs.push_back(sim::loadSweep(spec, cfg, uniformFactory(64),
                                      loads, opt));
        EXPECT_EQ(cache.stats().misses, loads.size());
    }
    for (std::size_t r = 1; r < runs.size(); ++r) {
        ASSERT_EQ(runs[r].size(), runs[0].size());
        for (std::size_t i = 0; i < loads.size(); ++i) {
            EXPECT_EQ(runs[r][i].load, runs[0][i].load);
            expectBitIdentical(runs[r][i].result, runs[0][i].result);
        }
    }
}

TEST(Campaign, ShardedSeedingIsThreadCountInvariant)
{
    const std::vector<double> loads{0.1, 0.1, 0.1, 0.1};
    const auto spec = flat64();
    const auto cfg = quickCfg();

    std::vector<std::vector<sim::SweepPoint>> runs;
    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        sim::SimCache cache(64);
        sim::CampaignOptions opt;
        opt.pool = &pool;
        opt.cache = &cache;
        opt.shardSeeds = true;
        runs.push_back(sim::loadSweep(spec, cfg, uniformFactory(64),
                                      loads, opt));
    }
    // Shard seeds differ per index, so equal loads give different
    // results within one run...
    EXPECT_NE(runs[0][0].result.acceptedFlitsPerCycle,
              runs[0][1].result.acceptedFlitsPerCycle);
    // ...but each index is identical across thread counts.
    for (std::size_t r = 1; r < runs.size(); ++r)
        for (std::size_t i = 0; i < loads.size(); ++i)
            expectBitIdentical(runs[r][i].result, runs[0][i].result);
}

TEST(Campaign, SpeculativeSaturationMatchesSerialBisection)
{
    // The Table IV / Table V simulated configurations.
    const std::vector<SwitchSpec> specs{
        flat64(), hirise64(4), hirise64(2), hirise64(1),
        hirise64(4, ArbScheme::LayerLrg)};
    const auto cfg = quickCfg();

    for (const auto &spec : specs) {
        double serial = sim::saturationLoad(spec, cfg,
                                            uniformFactory(64), 0.0,
                                            0.5, 8);
        for (int depth : {1, 2, 3}) {
            ThreadPool pool(4);
            sim::SimCache cache(256);
            sim::CampaignOptions opt;
            opt.pool = &pool;
            opt.cache = &cache;
            double spec_load = sim::saturationLoadSpeculative(
                spec, cfg, uniformFactory(64), 0.0, 0.5, 8, depth,
                opt);
            EXPECT_EQ(spec_load, serial)
                << spec.name() << " depth=" << depth;
        }
    }
}

TEST(Campaign, SpeculativeSearchCachesCutRepeatCost)
{
    // A repeated speculative search with the same cache must be
    // served entirely from memory: the warm-path critical cost is
    // hash lookups, not simulations.
    ThreadPool pool(2);
    sim::SimCache cache(256);
    sim::CampaignOptions opt;
    opt.pool = &pool;
    opt.cache = &cache;
    const auto spec = flat64();
    const auto cfg = quickCfg();

    double first = sim::saturationLoadSpeculative(
        spec, cfg, uniformFactory(64), 0.0, 0.5, 8, 2, opt);
    auto cold = cache.stats();
    EXPECT_GT(cold.misses, 0u);

    cache.resetStats();
    double second = sim::saturationLoadSpeculative(
        spec, cfg, uniformFactory(64), 0.0, 0.5, 8, 2, opt);
    auto warm = cache.stats();
    EXPECT_EQ(first, second);
    EXPECT_EQ(warm.misses, 0u);
    EXPECT_GT(warm.hits, 0u);
}

TEST(Campaign, SpeculativeDepthOneDegeneratesToSerialSchedule)
{
    // Depth 1 evaluates exactly one midpoint per round: the same
    // simulation count as serial bisection (no wasted speculation).
    ThreadPool pool(2);
    sim::SimCache cache(64);
    sim::CampaignOptions opt;
    opt.pool = &pool;
    opt.cache = &cache;
    sim::saturationLoadSpeculative(flat64(), quickCfg(),
                                   uniformFactory(64), 0.0, 0.5, 6, 1,
                                   opt);
    EXPECT_EQ(cache.stats().misses, 6u);
}

TEST(Campaign, DefaultShardStreamsSixteenPointChunks)
{
    // shardPoints = 0 means svc::kDefaultShardPoints: a 40-point job
    // streams as chunks of 16, 16 and 8 rows.
    svc::CampaignSpec spec;
    spec.sw.topo = Topology::Flat2D;
    spec.sw.radix = 8;
    spec.sw.arb = ArbScheme::Lrg;
    spec.cfg.warmupCycles = 20;
    spec.cfg.measureCycles = 80;
    spec.loads = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
    spec.seeds = {1, 2, 3, 4};
    ASSERT_EQ(spec.points().size(), 40u);

    sim::SimCache cache(64);
    svc::RunCampaignOptions opt;
    opt.cache = &cache;
    std::vector<std::size_t> firsts, sizes;
    opt.onRows = [&](std::size_t first, std::vector<std::string> rows) {
        firsts.push_back(first);
        sizes.push_back(rows.size());
    };
    svc::CampaignOutcome out = svc::runCampaign(spec, opt);
    EXPECT_EQ(out.pointsDone, 40u);
    EXPECT_EQ(sizes, (std::vector<std::size_t>{16, 16, 8}));
    EXPECT_EQ(firsts, (std::vector<std::size_t>{0, 16, 32}));
}

} // namespace
} // namespace hirise
