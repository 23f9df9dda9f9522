/**
 * @file
 * Observability-layer tests: metrics registry semantics, the cycle
 * tracer's ring accounting and exports, and two end-to-end guarantees
 * on the instrumented simulator — the grant/release event stream of
 * the optimized Hi-Rise fabric matches a replay against the reference
 * oracle, and tracing never changes simulation results.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/lockstep.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/network_sim.hh"
#include "sim/sweep.hh"
#include "traffic/pattern.hh"

using namespace hirise;

namespace {

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsStableHandles)
{
    obs::MetricsRegistry reg;
    obs::Counter &c1 = reg.counter("a.events");
    obs::Counter &c2 = reg.counter("a.events");
    EXPECT_EQ(&c1, &c2);
    c1.inc();
    c2.inc(4);
    EXPECT_EQ(c1.value(), 5u);

    obs::Gauge &g = reg.gauge("a.depth");
    g.set(2.5);
    EXPECT_DOUBLE_EQ(reg.gauge("a.depth").value(), 2.5);
    EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, SnapshotIsSortedAndTyped)
{
    obs::MetricsRegistry reg;
    reg.counter("z.count").inc(3);
    reg.gauge("a.gauge").set(1.5);
    reg.histogram("m.hist").observe(4.0);
    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "a.gauge");
    EXPECT_EQ(snap[0].kind, obs::MetricSnapshot::Kind::Gauge);
    EXPECT_EQ(snap[1].name, "m.hist");
    EXPECT_EQ(snap[1].kind, obs::MetricSnapshot::Kind::Histogram);
    EXPECT_EQ(snap[1].count, 1u);
    EXPECT_EQ(snap[2].name, "z.count");
    EXPECT_DOUBLE_EQ(snap[2].value, 3.0);
}

TEST(MetricsRegistry, HistogramSnapshotUsesFixedQuantiles)
{
    obs::MetricsRegistry reg;
    auto &h = reg.histogram("lat", 1.0, 128);
    for (int i = 1; i <= 100; ++i)
        h.observe(i);
    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_NEAR(snap[0].p50, 51.0, 2.0);
    EXPECT_NEAR(snap[0].p99, 100.0, 2.0);
    EXPECT_EQ(snap[0].overflow, 0u);
}

TEST(MetricsRegistry, JsonAndCsvExportContainEveryMetric)
{
    obs::MetricsRegistry reg;
    reg.counter("sim.packets").inc(7);
    reg.gauge("pool.depth").set(3.0);
    std::ostringstream js, cs;
    reg.writeJson(js);
    reg.writeCsv(cs);
    EXPECT_NE(js.str().find("\"sim.packets\""), std::string::npos);
    EXPECT_NE(js.str().find("\"pool.depth\""), std::string::npos);
    EXPECT_NE(cs.str().find("sim.packets"), std::string::npos);
    EXPECT_NE(cs.str().find("name,kind,value"), std::string::npos);
}

TEST(MetricsRegistry, ResetZeroesButKeepsRegistrations)
{
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("n");
    c.inc(9);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(&reg.counter("n"), &c);
    EXPECT_EQ(reg.size(), 1u);
}

// ---------------------------------------------------------------------
// Cycle tracer
// ---------------------------------------------------------------------

TEST(CycleTracer, EventNamesRoundTrip)
{
    for (std::uint32_t i = 0; i < obs::kNumEv; ++i) {
        auto e = static_cast<obs::Ev>(i);
        obs::Ev back;
        ASSERT_TRUE(obs::evFromString(obs::toString(e), &back));
        EXPECT_EQ(back, e);
    }
    obs::Ev dummy;
    EXPECT_FALSE(obs::evFromString("no_such_event", &dummy));
}

TEST(CycleTracer, RingOverwritesOldestAndCountsDrops)
{
    obs::CycleTracer tr;
    tr.enable(4);
    obs::setTraceCycle(0);
    for (std::uint32_t i = 0; i < 10; ++i)
        tr.record(obs::Ev::Inject, i);
    EXPECT_EQ(tr.recorded(), 10u);
    EXPECT_EQ(tr.dropped(), 6u);
    auto ev = tr.snapshot();
    ASSERT_EQ(ev.size(), 4u);
    // Oldest-first: the four survivors are events 6..9.
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(ev[i].a, 6u + i);
    tr.disable();
    obs::setEnabled(false);
}

TEST(CycleTracer, DisabledTracerRecordsNothing)
{
    obs::CycleTracer tr;
    tr.record(obs::Ev::Grant, 1, 2);
    EXPECT_EQ(tr.recorded(), 0u);
    EXPECT_TRUE(tr.snapshot().empty());
}

TEST(CycleTracer, JsonlExportHasHeaderAndOneLinePerEvent)
{
    obs::CycleTracer tr;
    tr.enable(64);
    obs::setTraceCycle(17);
    std::uint32_t name = tr.internName("exp\"quoted\"");
    tr.record(obs::Ev::Grant, 3, 5, 1, 42);
    tr.recordAt(1000, obs::Ev::ExpBegin, name);
    tr.disable();
    obs::setEnabled(false);

    std::string path = "obs_test_trace.jsonl";
    ASSERT_TRUE(tr.exportJsonl(path));
    std::ifstream f(path);
    std::string line;
    ASSERT_TRUE(std::getline(f, line));
    EXPECT_NE(line.find("\"schema\":\"hirise-trace-v1\""),
              std::string::npos);
    EXPECT_NE(line.find("\"events\":2"), std::string::npos);
    EXPECT_NE(line.find("\\\"quoted\\\""), std::string::npos);
    ASSERT_TRUE(std::getline(f, line));
    EXPECT_NE(line.find("\"kind\":\"grant\""), std::string::npos);
    EXPECT_NE(line.find("\"cycle\":17"), std::string::npos);
    EXPECT_NE(line.find("\"id\":42"), std::string::npos);
    ASSERT_TRUE(std::getline(f, line));
    EXPECT_NE(line.find("\"kind\":\"exp_begin\""), std::string::npos);
    EXPECT_FALSE(std::getline(f, line));
    std::filesystem::remove(path);
}

TEST(CycleTracer, ChromeExportIsWellFormedEnough)
{
    obs::CycleTracer tr;
    tr.enable(64);
    obs::setTraceCycle(5);
    std::uint32_t name = tr.internName("table4");
    tr.recordAt(100, obs::Ev::ExpBegin, name);
    tr.record(obs::Ev::Inject, 1, 2, 0, 7);
    tr.recordAt(900, obs::Ev::ExpEnd, name);
    tr.disable();
    obs::setEnabled(false);

    std::string path = "obs_test_trace_chrome.json";
    ASSERT_TRUE(tr.exportChrome(path));
    std::ifstream f(path);
    std::stringstream buf;
    buf << f.rdbuf();
    std::string s = buf.str();
    EXPECT_NE(s.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(s.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(s.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(s.find("\"name\":\"table4\""), std::string::npos);
    EXPECT_NE(s.find("\"ph\":\"i\""), std::string::npos);
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// End-to-end: instrumented simulator
// ---------------------------------------------------------------------

SwitchSpec
hirise16()
{
    SwitchSpec s;
    s.topo = Topology::HiRise;
    s.radix = 16;
    s.layers = 4;
    s.channels = 2;
    s.arb = ArbScheme::Clrg;
    return s;
}

sim::SimConfig
traceCfg()
{
    sim::SimConfig cfg;
    cfg.injectionRate = 0.2;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 800;
    cfg.seed = 42;
    return cfg;
}

struct SimpleEvent
{
    std::uint64_t cycle;
    std::uint64_t id;
    std::uint32_t a, b, c;
    obs::Ev kind;

    bool
    operator==(const SimpleEvent &o) const
    {
        return cycle == o.cycle && id == o.id && a == o.a &&
               b == o.b && c == o.c && kind == o.kind;
    }
};

std::vector<SimpleEvent>
portEvents(const obs::CycleTracer &tr)
{
    std::vector<SimpleEvent> out;
    for (const auto &e : tr.snapshot()) {
        if (e.kind != obs::Ev::Inject && e.kind != obs::Ev::Grant &&
            e.kind != obs::Ev::Release)
            continue;
        out.push_back({e.cycle, e.id, e.a, e.b, e.c, e.kind});
    }
    return out;
}

/**
 * The paper's central claim is that the optimized single-cycle
 * arbitration is behaviourally identical to the straightforward
 * reference. The trace must agree: replaying the exact same 4-layer
 * Hi-Rise configuration against check::RefFabricAdapter (the PR 2
 * oracle) has to produce the identical inject/grant/release event
 * sequence, cycle for cycle and packet id for packet id.
 */
TEST(ObsEndToEnd, GrantReleaseSequenceMatchesOracleReplay)
{
    auto spec = hirise16();
    auto cfg = traceCfg();
    auto &tr = obs::CycleTracer::global();

    tr.enable(1u << 18);
    {
        sim::NetworkSim opt(
            spec, cfg, std::make_shared<traffic::UniformRandom>(16));
        for (int t = 0; t < 600; ++t)
            opt.step();
    }
    auto opt_events = portEvents(tr);

    tr.clear();
    {
        sim::NetworkSim ref(
            spec, cfg, std::make_shared<traffic::UniformRandom>(16),
            std::make_unique<check::RefFabricAdapter>(spec));
        for (int t = 0; t < 600; ++t)
            ref.step();
    }
    auto ref_events = portEvents(tr);
    tr.disable();
    obs::setEnabled(false);

    ASSERT_GT(opt_events.size(), 100u)
        << "trace too sparse to be meaningful";
    ASSERT_EQ(opt_events.size(), ref_events.size());
    for (std::size_t i = 0; i < opt_events.size(); ++i)
        ASSERT_TRUE(opt_events[i] == ref_events[i])
            << "first divergence at event " << i;
}

/** Tracing must be observation only: bit-identical SimResult. */
TEST(ObsEndToEnd, TracingDoesNotChangeSimResults)
{
    auto spec = hirise16();
    auto cfg = traceCfg();
    auto factory = [] {
        return std::make_shared<traffic::UniformRandom>(16);
    };

    auto plain = sim::runAtLoad(spec, cfg, factory, 0.15);

    auto traced_cfg = cfg;
    traced_cfg.trace = true;
    auto traced = sim::runAtLoad(spec, traced_cfg, factory, 0.15);
    obs::CycleTracer::global().disable();
    obs::setEnabled(false);

    EXPECT_EQ(plain.offeredFlitsPerCycle, traced.offeredFlitsPerCycle);
    EXPECT_EQ(plain.acceptedFlitsPerCycle,
              traced.acceptedFlitsPerCycle);
    EXPECT_EQ(plain.avgLatencyCycles, traced.avgLatencyCycles);
    EXPECT_EQ(plain.p99LatencyCycles, traced.p99LatencyCycles);
    EXPECT_EQ(plain.avgQueueingCycles, traced.avgQueueingCycles);
    EXPECT_EQ(plain.fairness, traced.fairness);
    EXPECT_EQ(plain.packetsDelivered, traced.packetsDelivered);
    EXPECT_EQ(plain.inFlightAtMeasureEnd, traced.inFlightAtMeasureEnd);
    EXPECT_EQ(plain.latencyOverflowPackets,
              traced.latencyOverflowPackets);
    EXPECT_EQ(plain.perInputLatency, traced.perInputLatency);
    EXPECT_EQ(plain.perInputThroughput, traced.perInputThroughput);

    // And the traced run actually recorded simulation events.
    EXPECT_GT(obs::CycleTracer::global().recorded(), 0u);
}

} // namespace
