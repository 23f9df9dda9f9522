/**
 * @file
 * Service-layer unit tests: the frame codec (round-trip, incremental
 * reassembly, malformed/truncated/oversized rejection), the JSON
 * value/parser (round-trip determinism, hostile input), number
 * spelling against a printf reference, pinned result-row bytes, the
 * campaign spec format (defaults, validation mirroring
 * SwitchSpec::validate, includes, dotted-path overrides), and a
 * seeded fuzz pass feeding mutated spec documents through the parser
 * — which must never abort, only return (false, error).
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "sim/network_sim.hh"
#include "svc/campaign.hh"
#include "svc/campaign_spec.hh"
#include "svc/frame.hh"
#include "svc/json.hh"

namespace hirise {
namespace {

using svc::CampaignSpec;
using svc::FrameDecoder;
using svc::Json;

// -- frame codec ------------------------------------------------------

TEST(Frame, RoundTripSingle)
{
    std::string wire = svc::frameEncode("{\"op\":\"ping\"}");
    ASSERT_EQ(wire.size(), 4u + 13u);
    FrameDecoder dec;
    dec.feed(wire);
    std::string out;
    ASSERT_TRUE(dec.next(&out));
    EXPECT_EQ(out, "{\"op\":\"ping\"}");
    EXPECT_FALSE(dec.next(&out));
    EXPECT_FALSE(dec.error());
    EXPECT_EQ(dec.buffered(), 0u);
}

TEST(Frame, RoundTripManyIncludingEmpty)
{
    std::vector<std::string> payloads = {"", "a", std::string(1000, 'x'),
                                         "{\"k\":[1,2,3]}"};
    std::string wire;
    for (const auto &p : payloads)
        ASSERT_TRUE(svc::frameAppend(wire, p));
    FrameDecoder dec;
    dec.feed(wire);
    for (const auto &p : payloads) {
        std::string out;
        ASSERT_TRUE(dec.next(&out));
        EXPECT_EQ(out, p);
    }
    std::string out;
    EXPECT_FALSE(dec.next(&out));
}

TEST(Frame, ByteAtATimeReassembly)
{
    std::string wire = svc::frameEncode("hello") +
                       svc::frameEncode("world");
    FrameDecoder dec;
    std::vector<std::string> got;
    for (char ch : wire) {
        dec.feed(&ch, 1);
        std::string out;
        while (dec.next(&out))
            got.push_back(out);
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], "hello");
    EXPECT_EQ(got[1], "world");
}

TEST(Frame, TruncatedTailNeverCompletes)
{
    std::string wire = svc::frameEncode("abcdef");
    FrameDecoder dec;
    dec.feed(wire.data(), wire.size() - 1);
    std::string out;
    EXPECT_FALSE(dec.next(&out));
    EXPECT_FALSE(dec.error()); // incomplete, not invalid
    dec.feed(wire.data() + wire.size() - 1, 1);
    EXPECT_TRUE(dec.next(&out));
    EXPECT_EQ(out, "abcdef");
}

TEST(Frame, OversizedLengthPoisonsTheStream)
{
    // Length prefix declaring 0xffffffff bytes: must flag an error
    // without allocating, and stay poisoned from then on.
    std::string wire = "\xff\xff\xff\xff";
    FrameDecoder dec;
    dec.feed(wire);
    std::string out;
    EXPECT_FALSE(dec.next(&out));
    EXPECT_TRUE(dec.error());
    dec.feed(svc::frameEncode("valid"));
    EXPECT_FALSE(dec.next(&out)); // no resynchronization
}

TEST(Frame, LimitBoundaryIsExact)
{
    FrameDecoder dec(/*max_frame=*/8);
    std::string ok = svc::frameEncode("12345678");
    dec.feed(ok);
    std::string out;
    ASSERT_TRUE(dec.next(&out));
    EXPECT_EQ(out, "12345678");

    FrameDecoder dec2(/*max_frame=*/8);
    std::string over = svc::frameEncode("123456789");
    dec2.feed(over);
    EXPECT_FALSE(dec2.next(&out));
    EXPECT_TRUE(dec2.error());
}

TEST(Frame, EncodeRefusesOverLimitPayload)
{
    std::string big(svc::kMaxFrameBytes + 1, 'x');
    std::string out = "keep";
    EXPECT_FALSE(svc::frameAppend(out, big));
    EXPECT_EQ(out, "keep"); // untouched on refusal
}

// -- JSON -------------------------------------------------------------

TEST(SvcJson, ParseDumpRoundTripPreservesOrderAndBytes)
{
    std::string text =
        "{\"z\":1,\"a\":[true,false,null,\"s\"],\"n\":0.5,"
        "\"nest\":{\"k\":-3}}";
    Json v;
    ASSERT_TRUE(Json::parse(text, &v));
    EXPECT_EQ(v.dump(), text);
    // Dump of a reparse is identical too (full determinism).
    Json v2;
    ASSERT_TRUE(Json::parse(v.dump(), &v2));
    EXPECT_EQ(v2.dump(), text);
}

/** svc::appendNumber() into a fresh string. */
std::string
spell(double v)
{
    std::string out;
    svc::appendNumber(out, v);
    return out;
}

TEST(SvcJson, NumberSpellingsAreCanonical)
{
    EXPECT_EQ(spell(0.0), "0");
    EXPECT_EQ(spell(-0.0), "0");
    EXPECT_EQ(spell(42.0), "42");
    EXPECT_EQ(spell(-7.0), "-7");
    // Round-trip-exact fractional spelling.
    double v = 0.1;
    Json parsed;
    ASSERT_TRUE(Json::parse(spell(v), &parsed));
    EXPECT_EQ(parsed.asNumber(), v);
    // JSON has no inf/NaN.
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(spell(inf), "null");
    EXPECT_EQ(spell(-inf), "null");
    EXPECT_EQ(spell(std::nan("")), "null");
    // The 2^53 boundary: below it integers take the integer path, at
    // and above it %.17g, whose spelling is the same digits until
    // the exponent reaches 17.
    EXPECT_EQ(spell(0x1p53 - 1), "9007199254740991");
    EXPECT_EQ(spell(-(0x1p53 - 1)), "-9007199254740991");
    EXPECT_EQ(spell(0x1p53), "9007199254740992");
    EXPECT_EQ(spell(-0x1p53), "-9007199254740992");
    EXPECT_EQ(spell(0x1p53 + 2), "9007199254740994");
    EXPECT_EQ(spell(0x1p54), "18014398509481984");
    EXPECT_EQ(spell(1e17), "1e+17");
    std::string appended = "x";
    svc::appendNumber(appended, 0.25);
    svc::appendNumber(appended, -0.0);
    EXPECT_EQ(appended, "x0.250");
}

/** The spelling svc numbers had when they were built on printf:
 *  the reference the to_chars spelling must match byte for byte. */
std::string
printfSpelling(double v)
{
    if (v == 0.0)
        return "0";
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    if (std::round(v) == v && std::fabs(v) < 0x1p53)
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    else
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

TEST(SvcJson, NumberSpellingMatchesPrintfReference)
{
    // Seeded families of doubles: raw bit patterns (NaN and inf
    // included), uniform fractions, values scaled across the decimal
    // range, rounded decimals, integers around 2^53 and beyond,
    // subnormals, ratios of counters (the shape of simulation
    // averages) and powers of two over the whole exponent range.
    Rng rng(20261018);
    const int kSamples = 240000;
    int mismatches = 0;
    for (int i = 0; i < kSamples; ++i) {
        const double sign = (rng.next() & 1) ? -1.0 : 1.0;
        double v = 0.0;
        switch (i % 8) {
          case 0:
            v = std::bit_cast<double>(rng.next());
            break;
          case 1:
            v = rng.uniform();
            break;
          case 2:
            v = sign * rng.uniform() *
                std::pow(10.0, double(rng.below(61)) - 30.0);
            break;
          case 3: {
            double scale = std::pow(10.0, double(rng.below(7)));
            v = sign * std::round(rng.uniform() * 1e4 * scale) / scale;
            break;
          }
          case 4:
            if (rng.next() & 1)
                v = sign * (0x1p53 + double(rng.below(9)) - 4.0);
            else
                v = sign * double(rng.next() >> rng.below(64));
            break;
          case 5:
            v = sign * std::bit_cast<double>(rng.next() &
                                             ((std::uint64_t(1) << 52) -
                                              1));
            break;
          case 6:
            v = double(rng.below(1u << 30)) /
                double(1 + rng.below(1u << 20));
            break;
          default:
            v = sign * std::ldexp(1.0, int(rng.below(2098)) - 1074);
            break;
        }
        const std::string want = printfSpelling(v);
        const std::string got = spell(v);
        if (got != want && ++mismatches <= 10) {
            ADD_FAILURE() << std::hexfloat << v << ": got " << got
                          << ", printf spells " << want;
        }
    }
    EXPECT_EQ(mismatches, 0);
}

// -- result rows ------------------------------------------------------

TEST(SvcRow, RowBytesArePinned)
{
    // Expected strings were captured from the printf-based
    // serializer; they are the byte-identity contract of
    // docs/SERVICE.md, so a change here is a protocol change.
    {
        sim::RunPoint pt{0.1, 1};
        sim::SimResult r;
        r.offeredFlitsPerCycle = 0.1;
        r.acceptedFlitsPerCycle = 1.0 / 3.0;
        r.avgLatencyCycles = 12.345678901234567;
        r.p99LatencyCycles = 0x1p53;
        r.avgQueueingCycles = 0x1p53 + 2;
        r.packetsDelivered = 123456789;
        r.inFlightAtMeasureEnd = 0;
        r.latencyOverflowPackets = std::uint64_t(1) << 60;
        r.packetsDropped = 7;
        r.fairness = -0.0;
        EXPECT_EQ(
            svc::resultRow(0, pt, r),
            "{\"row\":0,\"load\":0.10000000000000001,\"seed\":1,"
            "\"offered_fpc\":0.10000000000000001,"
            "\"accepted_fpc\":0.33333333333333331,"
            "\"avg_latency\":12.345678901234567,"
            "\"p99_latency\":9007199254740992,"
            "\"avg_queueing\":9007199254740994,\"packets\":123456789,"
            "\"in_flight\":0,\"latency_overflow\":1.152921504606847e+18,"
            "\"dropped\":7,\"fairness\":0}");
    }
    {
        sim::RunPoint pt{1e300, 0xffffffffffffffffull};
        sim::SimResult r;
        r.offeredFlitsPerCycle = 4.9406564584124654e-324;
        r.acceptedFlitsPerCycle = -0.0;
        r.avgLatencyCycles = 1e300;
        r.p99LatencyCycles = -(0x1p53 - 1);
        r.avgQueueingCycles = 2.5e-5;
        r.packetsDelivered = 0xffffffffffffffffull;
        r.inFlightAtMeasureEnd = 9007199254740993ull;
        r.fairness = 0.99999999999999989;
        EXPECT_EQ(
            svc::resultRow(12345, pt, r),
            "{\"row\":12345,\"load\":1.0000000000000001e+300,"
            "\"seed\":1.8446744073709552e+19,"
            "\"offered_fpc\":4.9406564584124654e-324,"
            "\"accepted_fpc\":0,\"avg_latency\":1.0000000000000001e+300,"
            "\"p99_latency\":-9007199254740991,"
            "\"avg_queueing\":2.5000000000000001e-05,"
            "\"packets\":1.8446744073709552e+19,"
            "\"in_flight\":9007199254740992,\"latency_overflow\":0,"
            "\"dropped\":0,\"fairness\":0.99999999999999989}");
    }
    {
        sim::RunPoint pt{0.5, 9007199254740992ull};
        sim::SimResult r;
        r.offeredFlitsPerCycle = 1e16;
        r.acceptedFlitsPerCycle = 2.2250738585072014e-308;
        r.avgLatencyCycles = 1e21;
        r.p99LatencyCycles = 123.0;
        r.avgQueueingCycles = -1.5;
        r.packetsDelivered = 42;
        r.fairness = 1.0;
        EXPECT_EQ(
            svc::resultRow(799, pt, r),
            "{\"row\":799,\"load\":0.5,\"seed\":9007199254740992,"
            "\"offered_fpc\":10000000000000000,"
            "\"accepted_fpc\":2.2250738585072014e-308,"
            "\"avg_latency\":1e+21,\"p99_latency\":123,"
            "\"avg_queueing\":-1.5,\"packets\":42,\"in_flight\":0,"
            "\"latency_overflow\":0,\"dropped\":0,\"fairness\":1}");
    }
}

TEST(SvcJson, RejectsMalformedInput)
{
    const char *bad[] = {
        "",           "{",         "[1,",      "\"unterminated",
        "{\"a\":}",   "{\"a\" 1}", "tru",      "nul",
        "01x",        "1.",        "1e",       "{\"a\":1,}",
        "[1 2]",      "\"\\q\"",   "\"\\u12\"", "\"\\ud800\"",
        "{\"a\":1} x", "\x01",
    };
    for (const char *t : bad) {
        Json v;
        std::string err;
        EXPECT_FALSE(Json::parse(t, &v, &err)) << t;
        EXPECT_FALSE(err.empty()) << t;
    }
}

TEST(SvcJson, DepthLimitStopsHostileNesting)
{
    std::string deep(2000, '[');
    deep += std::string(2000, ']');
    Json v;
    EXPECT_FALSE(Json::parse(deep, &v));
}

TEST(SvcJson, StringEscapes)
{
    Json v;
    ASSERT_TRUE(
        Json::parse("\"a\\n\\t\\\"\\\\\\u0041\\u00e9\"", &v));
    EXPECT_EQ(v.asString(), "a\n\t\"\\A\xc3\xa9");
    // Control characters re-escape on dump.
    EXPECT_EQ(Json(std::string("\x01")).dump(), "\"\\u0001\"");
}

// -- campaign spec ----------------------------------------------------

Json
baseSpecDoc()
{
    Json doc;
    std::string err;
    bool ok = Json::parse(
        R"({
          "name": "t",
          "switch": {"topology": "hirise", "radix": 16, "layers": 2,
                     "channels": 2, "arb": "clrg"},
          "sim": {"warmup_cycles": 100, "measure_cycles": 400,
                  "seed": 3},
          "pattern": {"kind": "uniform-random"},
          "loads": [0.1, 0.2],
          "seeds": [1, 2, 3]
        })",
        &doc, &err);
    EXPECT_TRUE(ok) << err;
    return doc;
}

TEST(CampaignSpecTest, ParsesAndBuildsSeedsMajorGrid)
{
    CampaignSpec spec;
    std::string err;
    ASSERT_TRUE(svc::parseCampaignSpec(baseSpecDoc(), &spec, &err))
        << err;
    EXPECT_EQ(spec.name, "t");
    EXPECT_EQ(spec.sw.topo, Topology::HiRise);
    EXPECT_EQ(spec.sw.radix, 16u);
    EXPECT_EQ(spec.cfg.seed, 3u);
    auto pts = spec.points();
    ASSERT_EQ(pts.size(), 6u);
    // Seeds-major: for each seed, every load in order.
    EXPECT_EQ(pts[0].seed, 1u);
    EXPECT_EQ(pts[0].load, 0.1);
    EXPECT_EQ(pts[1].seed, 1u);
    EXPECT_EQ(pts[1].load, 0.2);
    EXPECT_EQ(pts[2].seed, 2u);
}

TEST(CampaignSpecTest, ToJsonRoundTripsToEqualSpecAndHash)
{
    CampaignSpec spec;
    std::string err;
    ASSERT_TRUE(svc::parseCampaignSpec(baseSpecDoc(), &spec, &err));
    CampaignSpec again;
    ASSERT_TRUE(svc::parseCampaignSpec(spec.toJson(), &again, &err))
        << err;
    EXPECT_EQ(spec.toJson().dump(), again.toJson().dump());
    EXPECT_EQ(spec.hash(), again.hash());
}

TEST(CampaignSpecTest, LoadRangeExpansion)
{
    Json doc = baseSpecDoc();
    Json range;
    ASSERT_TRUE(Json::parse(
        "{\"from\":0.05,\"to\":0.2,\"step\":0.05}", &range));
    doc.set("loads", range);
    CampaignSpec spec;
    std::string err;
    ASSERT_TRUE(svc::parseCampaignSpec(doc, &spec, &err)) << err;
    ASSERT_EQ(spec.loads.size(), 4u);
    EXPECT_DOUBLE_EQ(spec.loads[0], 0.05);
    EXPECT_DOUBLE_EQ(spec.loads[3], 0.05 + 3 * 0.05);
}

TEST(CampaignSpecTest, DefaultSeedComesFromSimSeed)
{
    Json doc = baseSpecDoc();
    doc.set("seeds", Json()); // null -> absent semantics
    CampaignSpec spec;
    std::string err;
    // Null "seeds" is present-but-wrong-type for an array check;
    // remove by rebuilding without the key instead.
    Json doc2 = Json::object();
    for (const auto &[k, v] : doc.members()) {
        if (k != "seeds")
            doc2.set(k, v);
    }
    ASSERT_TRUE(svc::parseCampaignSpec(doc2, &spec, &err)) << err;
    ASSERT_EQ(spec.seeds.size(), 1u);
    EXPECT_EQ(spec.seeds[0], 3u); // sim.seed
}

TEST(CampaignSpecTest, ValidationMirrorsSwitchSpecRules)
{
    struct Case
    {
        const char *path;
        const char *value;
    };
    // Each would trip SwitchSpec::validate()'s fatal() — the service
    // parser must catch them all as soft errors first.
    const Case cases[] = {
        {"switch.radix", "1"},
        {"switch.flit_bits", "0"},
        {"switch.sched_iters", "0"},
        {"switch.layers", "1"},
        {"switch.arb", "\"islip\""},     // flat scheme on hirise
        {"switch.channels", "0"},
        {"switch.clrg_max_count", "0"},
        {"switch.channels", "99"},       // input-binned overflow
        {"loads", "[0.0]"},
        {"loads", "[1.5]"},
        {"sim.measure_cycles", "0"},
        {"seeds", "[]"},
        {"pattern.kind", "\"no-such-pattern\""},
    };
    for (const auto &c : cases) {
        Json doc = baseSpecDoc();
        std::string err;
        ASSERT_TRUE(svc::applySpecOverride(
            &doc, std::string(c.path) + "=" + c.value, &err));
        CampaignSpec spec;
        EXPECT_FALSE(svc::parseCampaignSpec(doc, &spec, &err))
            << c.path << "=" << c.value;
        EXPECT_FALSE(err.empty());
    }
}

TEST(CampaignSpecTest, OverridesCreatePathsAndParseValues)
{
    Json doc = baseSpecDoc();
    std::string err;
    ASSERT_TRUE(svc::applySpecOverride(&doc, "sim.seed=99", &err));
    ASSERT_TRUE(
        svc::applySpecOverride(&doc, "loads=[0.25]", &err));
    ASSERT_TRUE(svc::applySpecOverride(
        &doc, "pattern.kind=hotspot", &err)); // bare string
    ASSERT_TRUE(svc::applySpecOverride(&doc, "pattern.hot=5", &err));
    CampaignSpec spec;
    ASSERT_TRUE(svc::parseCampaignSpec(doc, &spec, &err)) << err;
    EXPECT_EQ(spec.cfg.seed, 99u);
    ASSERT_EQ(spec.loads.size(), 1u);
    EXPECT_EQ(spec.loads[0], 0.25);
    EXPECT_EQ(spec.pattern.kind, "hotspot");
    EXPECT_EQ(spec.pattern.hot, 5u);

    EXPECT_FALSE(svc::applySpecOverride(&doc, "novalue", &err));
    EXPECT_FALSE(svc::applySpecOverride(&doc, "=5", &err));
    EXPECT_FALSE(svc::applySpecOverride(&doc, "a..b=5", &err));
}

class SpecFileFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One directory per case and process: ctest runs each case
        // as its own process, so under `ctest -j` a shared directory
        // would be removed by one case's TearDown under another.
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = (std::filesystem::temp_directory_path() /
                ("hirise_svc_spec_" + std::string(info->name()) + "_" +
                 std::to_string(::getpid())))
                   .string();
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_ + "/sub");
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    void
    write(const std::string &rel, const std::string &text)
    {
        std::ofstream f(dir_ + "/" + rel);
        f << text;
    }

    std::string dir_;
};

TEST_F(SpecFileFixture, IncludeChainMergesParentFirst)
{
    write("base.json",
          R"({"switch": {"topology": "hirise", "radix": 16,
                          "layers": 2, "channels": 2, "arb": "clrg"},
               "loads": [0.1]})");
    write("sub/mid.json",
          R"({"include": "../base.json",
               "sim": {"seed": 5}, "loads": [0.2]})");
    write("top.json",
          R"({"include": "sub/mid.json", "name": "top",
               "sim": {"warmup_cycles": 100}})");

    Json doc;
    std::string err;
    ASSERT_TRUE(svc::loadSpecFile(dir_ + "/top.json", &doc, &err))
        << err;
    EXPECT_FALSE(doc.has("include")); // consumed
    EXPECT_EQ(doc["name"].asString(), "top");
    EXPECT_EQ(doc["loads"].at(0).asNumber(), 0.2); // mid overrides base
    // Deep merge: mid's seed and top's warmup coexist.
    EXPECT_EQ(doc["sim"]["seed"].asNumber(), 5.0);
    EXPECT_EQ(doc["sim"]["warmup_cycles"].asNumber(), 100.0);

    CampaignSpec spec;
    ASSERT_TRUE(svc::parseCampaignSpec(doc, &spec, &err)) << err;
    EXPECT_EQ(spec.cfg.seed, 5u);
}

TEST_F(SpecFileFixture, IncludeCycleIsAnError)
{
    write("a.json", R"({"include": "b.json"})");
    write("b.json", R"({"include": "a.json"})");
    Json doc;
    std::string err;
    EXPECT_FALSE(svc::loadSpecFile(dir_ + "/a.json", &doc, &err));
    EXPECT_NE(err.find("cycle"), std::string::npos) << err;
}

TEST_F(SpecFileFixture, MissingFileIsAnError)
{
    Json doc;
    std::string err;
    EXPECT_FALSE(
        svc::loadSpecFile(dir_ + "/nope.json", &doc, &err));
    EXPECT_FALSE(err.empty());
}

// -- fuzz: hostile specs must never abort -----------------------------

TEST(CampaignSpecFuzz, MutatedDocumentsNeverAbort)
{
    // Byte-level mutations of a valid spec text: flips, truncations,
    // duplications. Every mutant either parses (and then validates
    // or soft-fails) or reports a parse error; the process must
    // survive all of it. Seeded, so failures reproduce.
    std::string text = baseSpecDoc().dump();
    Rng rng(20260808);
    int parsed_ok = 0;
    for (int iter = 0; iter < 2000; ++iter) {
        std::string mut = text;
        int edits = 1 + int(rng.below(4));
        for (int e = 0; e < edits; ++e) {
            switch (rng.below(4)) {
              case 0: // flip a byte
                if (mut.empty())
                    break;
                mut[rng.below(mut.size())] =
                    char(rng.below(256));
                break;
              case 1: // truncate
                mut.resize(rng.below(mut.size() + 1));
                break;
              case 2: { // duplicate a span
                if (mut.empty())
                    break;
                std::size_t at = rng.below(mut.size());
                std::size_t len =
                    rng.below(mut.size() - at) + 1;
                mut.insert(at, mut.substr(at, len));
                break;
              }
              default: // delete a span
                if (mut.empty())
                    break;
                std::size_t at = rng.below(mut.size());
                mut.erase(at, rng.below(mut.size() - at) + 1);
                break;
            }
        }
        Json doc;
        std::string err;
        if (!Json::parse(mut, &doc, &err)) {
            EXPECT_FALSE(err.empty());
            continue;
        }
        CampaignSpec spec;
        if (svc::parseCampaignSpec(doc, &spec, &err)) {
            ++parsed_ok;
            // A spec the parser accepted must satisfy the fatal-path
            // invariants it promises to mirror.
            EXPECT_GE(spec.sw.radix, 2u);
            EXPECT_GE(spec.loads.size(), 1u);
            EXPECT_GE(spec.seeds.size(), 1u);
        } else {
            EXPECT_FALSE(err.empty());
        }
    }
    // The unmutated text parses, so at least the rare no-op mutants
    // should land here; mostly this guards against the loop being
    // vacuous.
    EXPECT_GE(parsed_ok, 0);
}

TEST(CampaignSpecFuzz, RandomJsonShapesNeverAbort)
{
    // Structurally valid but semantically random documents.
    Rng rng(77);
    const char *keys[] = {"name",   "switch", "sim",
                          "pattern", "loads", "seeds",
                          "radix",  "arb",    "kind"};
    std::function<Json(int)> gen = [&](int depth) -> Json {
        switch (rng.below(depth > 3 ? 4u : 6u)) {
          case 0: return Json();
          case 1: return Json(rng.below(2) == 0);
          case 2:
            return Json(double(rng.below(1000)) *
                        (rng.below(2) ? 1.0 : -0.013));
          case 3: return Json(keys[rng.below(9)]);
          case 4: {
            Json a = Json::array();
            for (std::uint32_t i = 0, n = rng.below(4); i < n; ++i)
                a.push(gen(depth + 1));
            return a;
          }
          default: {
            Json o = Json::object();
            for (std::uint32_t i = 0, n = rng.below(4); i < n; ++i)
                o.set(keys[rng.below(9)], gen(depth + 1));
            return o;
          }
        }
    };
    for (int iter = 0; iter < 2000; ++iter) {
        Json doc = gen(0);
        CampaignSpec spec;
        std::string err;
        if (!svc::parseCampaignSpec(doc, &spec, &err)) {
            EXPECT_FALSE(err.empty());
        }
    }
}

} // namespace
} // namespace hirise
