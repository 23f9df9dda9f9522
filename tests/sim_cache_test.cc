/**
 * @file
 * SimCache tests: key stability and sensitivity, hit/miss/stores
 * accounting, LRU eviction, the on-disk tier (round-trip through a
 * fresh cache instance, i.e. a simulated second process run),
 * version-tag invalidation of stale disk records, and the cached
 * campaign runner (runPointsCached) against per-point scalar runs.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "sim/sim_cache.hh"
#include "sim/sweep.hh"
#include "traffic/pattern.hh"

namespace hirise {
namespace {

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
flatSpec(std::uint32_t radix = 16)
{
    SwitchSpec s;
    s.topo = Topology::Flat2D;
    s.radix = radix;
    s.arb = ArbScheme::Lrg;
    return s;
}

sim::PatternFactory
uniformFactory(std::uint32_t radix)
{
    return [radix] {
        return std::make_shared<traffic::UniformRandom>(radix);
    };
}

sim::SimResult
makeResult(double accepted)
{
    sim::SimResult r;
    r.offeredFlitsPerCycle = 1.0;
    r.acceptedFlitsPerCycle = accepted;
    r.avgLatencyCycles = 12.5;
    r.p99LatencyCycles = 40.0;
    r.avgQueueingCycles = 3.25;
    r.fairness = 0.875;
    r.packetsDelivered = 1234;
    r.inFlightAtMeasureEnd = 17;
    r.latencyOverflowPackets = 3;
    r.perInputLatency = {1.0, 2.0, 3.0};
    r.perInputThroughput = {0.5, 0.25};
    return r;
}

void
expectSameResult(const sim::SimResult &a, const sim::SimResult &b)
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

/** Unique per-test scratch dir under the build tree. */
std::string
scratchDir(const char *tag)
{
    std::string dir = std::string("simcache_test_") + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(SimCacheKey, StableForEqualInputs)
{
    auto cfg = quickCfg();
    auto k1 = sim::SimCache::key(flatSpec(), cfg, "uniform-random/r16");
    auto k2 = sim::SimCache::key(flatSpec(), cfg, "uniform-random/r16");
    EXPECT_EQ(k1, k2);
}

TEST(SimCacheKey, SensitiveToEveryRelevantField)
{
    auto cfg = quickCfg();
    auto base = sim::SimCache::key(flatSpec(), cfg, "p");

    SwitchSpec s2 = flatSpec();
    s2.radix = 17;
    EXPECT_NE(sim::SimCache::key(s2, cfg, "p"), base);

    SwitchSpec s3 = flatSpec();
    s3.flitBits = 64;
    EXPECT_NE(sim::SimCache::key(s3, cfg, "p"), base);

    auto cfg2 = cfg;
    cfg2.seed = 8;
    EXPECT_NE(sim::SimCache::key(flatSpec(), cfg2, "p"), base);

    auto cfg3 = cfg;
    cfg3.injectionRate = 0.5;
    EXPECT_NE(sim::SimCache::key(flatSpec(), cfg3, "p"), base);

    auto cfg4 = cfg;
    cfg4.measureCycles += 1;
    EXPECT_NE(sim::SimCache::key(flatSpec(), cfg4, "p"), base);

    EXPECT_NE(sim::SimCache::key(flatSpec(), cfg, "q"), base);
}

// Regression: the key hashed doubles via their raw bit pattern, so
// -0.0 and +0.0 — equal injection rates as far as the simulator is
// concerned, and both producible by sweep arithmetic like
// `lo + t * (hi - lo)` — landed in different cache entries.
TEST(SimCacheKey, NegativeZeroAndPositiveZeroCollide)
{
    auto cfg_pos = quickCfg();
    cfg_pos.injectionRate = 0.0;
    auto cfg_neg = quickCfg();
    cfg_neg.injectionRate = -0.0;
    EXPECT_EQ(sim::SimCache::key(flatSpec(), cfg_pos, "p"),
              sim::SimCache::key(flatSpec(), cfg_neg, "p"));
}

TEST(SimCacheKeyDeathTest, NanInjectionRateIsRejected)
{
    auto cfg = quickCfg();
    cfg.injectionRate = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(
        { (void)sim::SimCache::key(flatSpec(), cfg, "p"); },
        "NaN in simulation cache key");
}

TEST(SimCache, HitMissAccounting)
{
    sim::SimCache cache(8);
    sim::SimResult out;
    EXPECT_FALSE(cache.lookup(1, &out));
    cache.store(1, makeResult(0.5));
    EXPECT_TRUE(cache.lookup(1, &out));
    EXPECT_EQ(out.acceptedFlitsPerCycle, 0.5);
    EXPECT_FALSE(cache.lookup(2, &out));

    auto s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.diskHits, 0u);
    EXPECT_EQ(s.stores, 1u);
    EXPECT_DOUBLE_EQ(s.hitRate(), 1.0 / 3.0);

    cache.resetStats();
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(SimCache, LruEvictsOldestEntry)
{
    sim::SimCache cache(2);
    cache.store(1, makeResult(0.1));
    cache.store(2, makeResult(0.2));
    sim::SimResult out;
    EXPECT_TRUE(cache.lookup(1, &out)); // 1 becomes most recent
    cache.store(3, makeResult(0.3));    // evicts 2
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.lookup(1, &out));
    EXPECT_FALSE(cache.lookup(2, &out));
    EXPECT_TRUE(cache.lookup(3, &out));
}

TEST(SimCache, DiskRoundTripAcrossInstances)
{
    std::string dir = scratchDir("roundtrip");
    sim::SimResult want = makeResult(0.75);
    {
        sim::SimCache writer(8, dir);
        ASSERT_TRUE(writer.diskEnabled());
        writer.store(99, want);
    }
    // A fresh instance (empty memory tier) must serve it from disk.
    sim::SimCache reader(8, dir);
    sim::SimResult out;
    ASSERT_TRUE(reader.lookup(99, &out));
    expectSameResult(out, want);
    auto s = reader.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.diskHits, 1u);

    // The disk hit was promoted into memory: a second lookup hits
    // the memory tier.
    ASSERT_TRUE(reader.lookup(99, &out));
    EXPECT_EQ(reader.stats().diskHits, 1u);
    std::filesystem::remove_all(dir);
}

TEST(SimCache, VersionTagInvalidatesStaleRecords)
{
    std::string dir = scratchDir("version");
    {
        sim::SimCache writer(8, dir, /*version=*/1);
        writer.store(7, makeResult(0.5));
    }
    // Same dir, bumped version: the old record is a miss, and a
    // store overwrites it with the new tag.
    sim::SimCache bumped(8, dir, /*version=*/2);
    sim::SimResult out;
    EXPECT_FALSE(bumped.lookup(7, &out));
    bumped.store(7, makeResult(0.9));

    sim::SimCache reader(8, dir, /*version=*/2);
    ASSERT_TRUE(reader.lookup(7, &out));
    EXPECT_EQ(out.acceptedFlitsPerCycle, 0.9);
    std::filesystem::remove_all(dir);
}

TEST(SimCache, CorruptRecordIsAMiss)
{
    std::string dir = scratchDir("corrupt");
    sim::SimCache cache(8, dir);
    cache.store(5, makeResult(0.5));

    // Truncate the record behind the cache's back; a fresh instance
    // must treat it as a miss rather than crash or return garbage.
    std::string path;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        path = e.path().string();
    ASSERT_FALSE(path.empty());
    std::filesystem::resize_file(path, 10);

    sim::SimCache reader(8, dir);
    sim::SimResult out;
    EXPECT_FALSE(reader.lookup(5, &out));
    std::filesystem::remove_all(dir);
}

TEST(RunAtLoadCached, SecondCallIsServedFromCache)
{
    sim::SimCache cache(32);
    auto spec = flatSpec();
    auto cfg = quickCfg();
    auto r1 = sim::runAtLoadCached(spec, cfg, uniformFactory(16), 0.2,
                                   &cache);
    auto r2 = sim::runAtLoadCached(spec, cfg, uniformFactory(16), 0.2,
                                   &cache);
    expectSameResult(r1, r2);
    auto s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.stores, 1u);

    // And the cached value matches an uncached run exactly.
    auto fresh = sim::runAtLoad(spec, cfg, uniformFactory(16), 0.2);
    expectSameResult(r2, fresh);
}

TEST(RunPointsCached, MatchesScalarAndPopulatesCache)
{
    SwitchSpec spec;
    spec.topo = Topology::HiRise;
    spec.radix = 64;
    spec.layers = 4;
    spec.channels = 4;
    spec.arb = ArbScheme::Clrg;
    sim::SimConfig base;
    base.warmupCycles = 150;
    base.measureCycles = 600;

    // Spans the benchmark program's low (at/below
    // NetworkSim::kInjHeapMaxRate), mid and saturated (1.0) regimes.
    std::vector<sim::RunPoint> pts;
    for (double load : {0.05, 0.125, 0.2, 0.4, 0.7, 1.0})
        for (std::uint64_t seed : {99ull, 7ull})
            pts.push_back({load, seed});

    sim::SimCache cache(64);
    sim::CampaignOptions opt;
    opt.cache = &cache;
    auto got = sim::runPointsCached(spec, base, uniformFactory(64), pts,
                                    opt);
    ASSERT_EQ(got.size(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        sim::SimConfig cfg = base;
        cfg.seed = pts[i].seed;
        expectSameResult(got[i], sim::runAtLoad(spec, cfg,
                                                uniformFactory(64),
                                                pts[i].load));
    }
    EXPECT_EQ(cache.stats().misses, pts.size());
    EXPECT_EQ(cache.stats().stores, pts.size());

    // A second evaluation is served entirely from the cache and
    // repeats the same results.
    auto again = sim::runPointsCached(spec, base, uniformFactory(64),
                                      pts, opt);
    for (std::size_t i = 0; i < pts.size(); ++i)
        expectSameResult(again[i], got[i]);
    EXPECT_EQ(cache.stats().misses, pts.size());
    EXPECT_EQ(cache.stats().hits, pts.size());
}

TEST(SimCacheDisk, EvictionEnforcesSizeCap)
{
    std::string dir = scratchDir("evict");
    // ~200 bytes per record; cap at roughly 5 records' worth.
    sim::SimCache cache(4, dir, sim::kSimCacheVersion, 1000);
    ASSERT_TRUE(cache.diskEnabled());
    for (std::uint64_t k = 1; k <= 40; ++k)
        cache.store(k, makeResult(0.01 * double(k)));
    ASSERT_TRUE(cache.evictDisk(/*wait=*/true));

    std::uint64_t total = 0;
    std::size_t records = 0;
    for (const auto &ent : std::filesystem::directory_iterator(dir)) {
        if (ent.path().extension() == ".simres") {
            total += ent.file_size();
            ++records;
        }
    }
    EXPECT_LE(total, 1000u);
    EXPECT_GT(records, 0u); // eviction trims, never empties

    // Survivors still read back intact through a fresh instance.
    sim::SimCache reader(4, dir, sim::kSimCacheVersion, 1000);
    std::size_t readable = 0;
    for (std::uint64_t k = 1; k <= 40; ++k) {
        sim::SimResult out;
        if (reader.lookup(k, &out)) {
            expectSameResult(out, makeResult(0.01 * double(k)));
            ++readable;
        }
    }
    EXPECT_EQ(readable, records);
    std::filesystem::remove_all(dir);
}

TEST(SimCacheDisk, StaleTmpFilesAreCollected)
{
    std::string dir = scratchDir("tmpgc");
    sim::SimCache cache(4, dir, sim::kSimCacheVersion, 1 << 20);
    cache.store(1, makeResult(0.5));

    // A crashed writer's leftover, backdated past the GC threshold.
    std::string stale = dir + "/00000000000000ff.simres.tmp.123";
    {
        std::ofstream f(stale, std::ios::binary);
        f << "partial";
    }
    std::filesystem::last_write_time(
        stale, std::filesystem::file_time_type::clock::now() -
                   std::chrono::hours(1));
    // A fresh one must survive (it could be a live writer's).
    std::string fresh = dir + "/00000000000000fe.simres.tmp.456";
    {
        std::ofstream f(fresh, std::ios::binary);
        f << "partial";
    }

    ASSERT_TRUE(cache.evictDisk(/*wait=*/true));
    EXPECT_FALSE(std::filesystem::exists(stale));
    EXPECT_TRUE(std::filesystem::exists(fresh));
    sim::SimResult out;
    EXPECT_TRUE(cache.lookup(1, &out));
    std::filesystem::remove_all(dir);
}

TEST(SimCacheDisk, TwoThreadsRacingTheSameKeyStayConsistent)
{
    // Two cache instances over one directory model two daemons
    // sharing HIRISE_SIMCACHE_DIR: one keeps (re)storing a key and
    // kicking eviction passes, the other keeps reading it. Every
    // successful read must return the exact record — never a torn or
    // partially-evicted one. flock() locks belong to the open file
    // description, so the two threads' separate descriptors contend
    // exactly like two processes would.
    std::string dir = scratchDir("race");
    sim::SimResult want = makeResult(0.625);
    constexpr std::uint64_t kKey = 42;
    constexpr int kIters = 300;

    std::atomic<bool> fail{false};
    std::thread writer([&] {
        sim::SimCache mine(2, dir, sim::kSimCacheVersion, 4096);
        for (int i = 0; i < kIters; ++i) {
            mine.store(kKey, want);
            mine.evictDisk(/*wait=*/false);
        }
    });
    std::thread reader([&] {
        sim::SimCache mine(1, dir, sim::kSimCacheVersion, 4096);
        for (int i = 0; i < kIters; ++i) {
            // Keep a second key churning so the reader's memory tier
            // (capacity 1) keeps dropping kKey and re-reading disk.
            mine.store(7, makeResult(0.125));
            sim::SimResult out;
            if (mine.lookup(kKey, &out) &&
                (out.acceptedFlitsPerCycle !=
                     want.acceptedFlitsPerCycle ||
                 out.perInputLatency != want.perInputLatency)) {
                fail.store(true);
                return;
            }
        }
    });
    writer.join();
    reader.join();
    EXPECT_FALSE(fail.load()) << "torn read under store/evict race";

    // After the dust settles the record reads back exactly.
    sim::SimCache check(2, dir, sim::kSimCacheVersion, 4096);
    sim::SimResult out;
    check.store(kKey, want); // re-store in case eviction removed it
    ASSERT_TRUE(check.lookup(kKey, &out));
    expectSameResult(out, want);
    std::filesystem::remove_all(dir);
}

TEST(RunAtLoadCached, DistinctPatternsDoNotCollide)
{
    sim::SimCache cache(32);
    auto cfg = quickCfg();
    auto spec = flatSpec();
    auto hot = [] {
        return std::make_shared<traffic::Hotspot>(16, 3);
    };
    auto r_uni = sim::runAtLoadCached(spec, cfg, uniformFactory(16),
                                      0.2, &cache);
    auto r_hot = sim::runAtLoadCached(spec, cfg, hot, 0.2, &cache);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_NE(r_uni.acceptedFlitsPerCycle, r_hot.acceptedFlitsPerCycle);
}

} // namespace
} // namespace hirise
