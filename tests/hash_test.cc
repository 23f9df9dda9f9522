/**
 * @file
 * Pins every persisted FNV-1a value to its value for fixed inputs:
 * SimCache::key names disk-cache records, NetworkSim::configKey is
 * embedded in snapshot files, CampaignSpec::hash names daemon jobs,
 * the TraceReplay digest is part of the trace pattern's cache
 * descriptor, and the snapshot checksum guards every snapshot file.
 * A change to any of them orphans data already on disk, so these
 * values must never be re-captured.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include <unistd.h>

#include "common/hash.hh"
#include "common/snapshot.hh"
#include "sim/network_sim.hh"
#include "sim/sim_cache.hh"
#include "svc/campaign_spec.hh"
#include "svc/json.hh"
#include "traffic/pattern.hh"
#include "traffic/trace.hh"

using namespace hirise;

namespace {

SwitchSpec
pinnedSpec()
{
    SwitchSpec s;
    s.topo = Topology::HiRise;
    s.radix = 16;
    s.layers = 2;
    s.channels = 2;
    s.arb = ArbScheme::Clrg;
    return s;
}

sim::SimConfig
pinnedConfig()
{
    sim::SimConfig c;
    c.injectionRate = 0.125;
    c.warmupCycles = 100;
    c.measureCycles = 400;
    c.seed = 3;
    return c;
}

} // namespace

TEST(Fnv1aHash, MatchesPublishedVectors)
{
    // FNV-1a 64-bit reference values (Fowler/Noll/Vo test suite).
    EXPECT_EQ(Fnv1a().value(), 0xcbf29ce484222325ull);
    Fnv1a a;
    a.bytes("a", 1);
    EXPECT_EQ(a.value(), 0xaf63dc4c8601ec8cull);
    Fnv1a foobar;
    foobar.bytes("foobar", 6);
    EXPECT_EQ(foobar.value(), 0x85944171f73967e8ull);
}

TEST(Fnv1aHash, SimCacheKeyIsPinned)
{
    EXPECT_EQ(sim::SimCache::key(pinnedSpec(), pinnedConfig(),
                                 "uniform-random"),
              7213810346043032080ull);
    EXPECT_EQ(sim::SimCache::key(pinnedSpec(), pinnedConfig(),
                                 "uniform-random", "faults:x"),
              13864627380929778167ull);
}

TEST(Fnv1aHash, NetworkSimConfigKeyIsPinned)
{
    sim::NetworkSim sim(pinnedSpec(), pinnedConfig(),
                        std::make_shared<traffic::UniformRandom>(16));
    EXPECT_EQ(sim.configKey(), 12945561633655026527ull);
}

TEST(Fnv1aHash, CampaignSpecHashIsPinned)
{
    svc::Json doc;
    std::string err;
    ASSERT_TRUE(svc::Json::parse(
        R"({
          "name": "pin",
          "switch": {"topology": "hirise", "radix": 16, "layers": 2,
                     "channels": 2, "arb": "clrg"},
          "sim": {"warmup_cycles": 100, "measure_cycles": 400,
                  "seed": 3},
          "pattern": {"kind": "uniform-random"},
          "loads": [0.1, 0.2],
          "seeds": [1, 2]
        })",
        &doc, &err))
        << err;
    svc::CampaignSpec spec;
    ASSERT_TRUE(svc::parseCampaignSpec(doc, &spec, &err)) << err;
    EXPECT_EQ(spec.hash(), 4792636001073464181ull);
}

TEST(Fnv1aHash, TraceReplayDigestIsPinned)
{
    traffic::TraceReplay t({{5, 1, 2}, {0, 3, 0}, {5, 0, 3}}, 4);
    EXPECT_EQ(t.descriptor(), "trace-replay/94ffdddf0a29b562");
}

TEST(Fnv1aHash, SnapshotChecksumIsPinned)
{
    snap::Writer w;
    w.u32(7);
    w.u64(0x0123456789abcdefull);
    w.b(true);
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("hirise_hash_pin_" + std::to_string(::getpid()) + ".snap"))
            .string();
    ASSERT_TRUE(w.writeFile(path, 42));
    // FileHeader: magic, version (u32 each), key, payloadSize,
    // checksum (u64 each).
    std::ifstream f(path, std::ios::binary);
    char hdr[32];
    f.read(hdr, sizeof(hdr));
    ASSERT_TRUE(f.good());
    std::uint64_t checksum;
    std::memcpy(&checksum, hdr + 24, sizeof(checksum));
    EXPECT_EQ(checksum, 3958574321496322137ull);
    std::remove(path.c_str());
}
