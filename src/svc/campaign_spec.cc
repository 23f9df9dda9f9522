#include "svc/campaign_spec.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/hash.hh"
#include "traffic/pattern.hh"

namespace hirise::svc {

namespace {

// ---------------------------------------------------------------------
// Enum spellings. Lower-case canonical names (distinct from the
// human-facing toString() forms in common/spec.cc, which carry
// display punctuation).
// ---------------------------------------------------------------------

struct EnumName
{
    const char *name;
    int value;
};

constexpr EnumName kTopologies[] = {
    {"flat2d", int(Topology::Flat2D)},
    {"folded3d", int(Topology::Folded3D)},
    {"hirise", int(Topology::HiRise)},
};

constexpr EnumName kArbs[] = {
    {"lrg", int(ArbScheme::Lrg)},
    {"layer-lrg", int(ArbScheme::LayerLrg)},
    {"wlrg", int(ArbScheme::Wlrg)},
    {"clrg", int(ArbScheme::Clrg)},
    {"islip", int(ArbScheme::Islip)},
    {"pim", int(ArbScheme::Pim)},
    {"wavefront", int(ArbScheme::Wavefront)},
};

constexpr EnumName kAllocs[] = {
    {"input-binned", int(ChannelAlloc::InputBinned)},
    {"output-binned", int(ChannelAlloc::OutputBinned)},
    {"priority", int(ChannelAlloc::Priority)},
};

template <std::size_t N>
const char *
enumName(const EnumName (&table)[N], int value)
{
    for (const auto &e : table) {
        if (e.value == value)
            return e.name;
    }
    return "?";
}

template <std::size_t N>
bool
enumValue(const EnumName (&table)[N], const std::string &name,
          int *out)
{
    for (const auto &e : table) {
        if (name == e.name) {
            *out = e.value;
            return true;
        }
    }
    return false;
}

template <std::size_t N>
std::string
enumChoices(const EnumName (&table)[N])
{
    std::string s;
    for (const auto &e : table) {
        if (!s.empty())
            s += "|";
        s += e.name;
    }
    return s;
}

// ---------------------------------------------------------------------
// Field readers: every getter reports a typed error instead of
// silently defaulting, so specs with typos fail loudly.
// ---------------------------------------------------------------------

struct Ctx
{
    std::string err;
    bool ok = true;

    bool
    fail(const std::string &msg)
    {
        if (ok) {
            err = msg;
            ok = false;
        }
        return false;
    }
};

bool
getU32(Ctx &c, const Json &obj, const char *key, std::uint32_t *out)
{
    const Json &v = obj[key];
    if (v.isNull())
        return true; // keep default
    double d = v.asNumber(-1.0);
    if (!v.isNumber() || d < 0 || d > 4294967295.0 ||
        d != std::floor(d))
        return c.fail(std::string(key) +
                      ": expected a non-negative integer");
    *out = static_cast<std::uint32_t>(d);
    return true;
}

bool
getU64(Ctx &c, const Json &obj, const char *key, std::uint64_t *out)
{
    const Json &v = obj[key];
    if (v.isNull())
        return true;
    double d = v.asNumber(-1.0);
    if (!v.isNumber() || d < 0 || d != std::floor(d) ||
        d > 9.007199254740992e15)
        return c.fail(std::string(key) +
                      ": expected a non-negative integer (<= 2^53)");
    *out = static_cast<std::uint64_t>(d);
    return true;
}

bool
getDouble(Ctx &c, const Json &obj, const char *key, double *out)
{
    const Json &v = obj[key];
    if (v.isNull())
        return true;
    if (!v.isNumber())
        return c.fail(std::string(key) + ": expected a number");
    *out = v.asNumber();
    return true;
}

template <std::size_t N>
bool
getEnum(Ctx &c, const Json &obj, const char *key,
        const EnumName (&table)[N], int *out)
{
    const Json &v = obj[key];
    if (v.isNull())
        return true;
    if (!v.isString() || !enumValue(table, v.asString(), out))
        return c.fail(std::string(key) + ": expected one of " +
                      enumChoices(table));
    return true;
}

/** SwitchSpec::check() with error returns instead of fatal(): the
 *  daemon parses hostile specs and must never exit. The wire format
 *  also bounds the radix, so a spec cannot make the daemon allocate
 *  an arbitrarily large switch. */
bool
checkSwitch(Ctx &c, const SwitchSpec &s)
{
    if (s.radix > 4096)
        return c.fail("switch.radix must be in [2, 4096]");
    if (s.topo != Topology::Flat2D && s.layers > s.radix)
        return c.fail("3D topologies need 2 <= layers <= radix");
    std::string err = s.check();
    if (!err.empty())
        return c.fail("switch: " + err);
    return true;
}

bool
parseLoads(Ctx &c, const Json &v, std::vector<double> *out)
{
    out->clear();
    if (v.isArray()) {
        for (const Json &l : v.items()) {
            if (!l.isNumber())
                return c.fail("loads: expected numbers");
            out->push_back(l.asNumber());
        }
    } else if (v.isObject()) {
        double from = -1, to = -1, step = 0;
        if (!getDouble(c, v, "from", &from) ||
            !getDouble(c, v, "to", &to) ||
            !getDouble(c, v, "step", &step))
            return false;
        if (!(step > 0) || to < from)
            return c.fail("loads: need from <= to and step > 0");
        if ((to - from) / step > 10000)
            return c.fail("loads: range describes > 10000 points");
        // Index-based grid, not repeated addition: the k-th load is
        // the same double no matter how the range was computed.
        auto n = static_cast<std::size_t>(
            std::floor((to - from) / step + 1e-9));
        for (std::size_t k = 0; k <= n; ++k)
            out->push_back(from + double(k) * step);
    } else {
        return c.fail("loads: expected an array or "
                      "{from, to, step}");
    }
    if (out->empty())
        return c.fail("loads: at least one point required");
    if (out->size() > 100000)
        return c.fail("loads: too many points");
    for (double l : *out) {
        if (!(l > 0.0) || l > 1.0 || std::isnan(l))
            return c.fail("loads: every load must be in (0, 1]");
    }
    return true;
}

bool
parsePattern(Ctx &c, const Json &v, const SwitchSpec &sw,
             PatternDecl *out)
{
    if (v.isNull())
        return true;
    if (!v.isObject())
        return c.fail("pattern: expected an object");
    const Json &kind = v["kind"];
    if (!kind.isNull()) {
        if (!kind.isString())
            return c.fail("pattern.kind: expected a string");
        out->kind = kind.asString();
    }
    if (!getU32(c, v, "hot", &out->hot) ||
        !getDouble(c, v, "mean_burst", &out->meanBurst) ||
        !getU32(c, v, "src_layer", &out->srcLayer) ||
        !getU32(c, v, "dst_layer", &out->dstLayer) ||
        !getU32(c, v, "dst", &out->dst))
        return false;
    if (v.has("sources")) {
        const Json &src = v["sources"];
        if (!src.isArray())
            return c.fail("pattern.sources: expected an array");
        out->sources.clear();
        for (const Json &s : src.items()) {
            double d = s.asNumber(-1.0);
            if (!s.isNumber() || d < 0 || d != std::floor(d))
                return c.fail("pattern.sources: expected integers");
            out->sources.push_back(static_cast<std::uint32_t>(d));
        }
    }

    const std::string &k = out->kind;
    if (k == "uniform-random" || k == "transpose" ||
        k == "bit-complement") {
        return true;
    }
    if (k == "hotspot") {
        if (out->hot >= sw.radix)
            return c.fail("pattern.hot: out of range");
        return true;
    }
    if (k == "bursty") {
        if (!(out->meanBurst >= 1.0) || out->meanBurst > 1e6)
            return c.fail("pattern.mean_burst must be in [1, 1e6]");
        return true;
    }
    if (k == "inter-layer-only") {
        if (sw.topo == Topology::Flat2D)
            return c.fail("pattern inter-layer-only needs a layered "
                          "topology");
        if (out->srcLayer >= sw.layers ||
            out->dstLayer >= sw.layers ||
            out->srcLayer == out->dstLayer)
            return c.fail("pattern src_layer/dst_layer: need two "
                          "distinct layers < switch.layers");
        return true;
    }
    if (k == "adversarial") {
        if (out->sources.empty())
            return c.fail("pattern adversarial needs sources");
        for (std::uint32_t s : out->sources) {
            if (s >= sw.radix)
                return c.fail("pattern.sources: out of range");
        }
        if (out->dst >= sw.radix)
            return c.fail("pattern.dst: out of range");
        return true;
    }
    return c.fail("pattern.kind: unknown kind '" + k +
                  "' (uniform-random|hotspot|bursty|transpose|"
                  "bit-complement|inter-layer-only|adversarial)");
}

} // namespace

sim::PatternFactory
CampaignSpec::patternFactory() const
{
    using namespace traffic;
    const PatternDecl p = pattern;
    const SwitchSpec s = sw;
    if (p.kind == "hotspot") {
        return [s, p] {
            return std::make_shared<Hotspot>(s.radix, p.hot);
        };
    }
    if (p.kind == "bursty") {
        return [s, p] {
            return std::make_shared<Bursty>(s.radix, p.meanBurst);
        };
    }
    if (p.kind == "transpose") {
        return [s] { return std::make_shared<Transpose>(s.radix); };
    }
    if (p.kind == "bit-complement") {
        return
            [s] { return std::make_shared<BitComplement>(s.radix); };
    }
    if (p.kind == "inter-layer-only") {
        return [s, p] {
            return std::make_shared<InterLayerOnly>(
                s.portsPerLayer(), s.channels, p.srcLayer, p.dstLayer);
        };
    }
    if (p.kind == "adversarial") {
        return [s, p] {
            return std::make_shared<Adversarial>(p.sources, p.dst,
                                                 s.radix);
        };
    }
    return
        [s] { return std::make_shared<UniformRandom>(s.radix); };
}

std::vector<sim::RunPoint>
CampaignSpec::points() const
{
    std::vector<sim::RunPoint> pts;
    pts.reserve(loads.size() * seeds.size());
    for (std::uint64_t s : seeds) {
        for (double l : loads)
            pts.push_back({l, s});
    }
    return pts;
}

Json
CampaignSpec::toJson() const
{
    Json sw_j = Json::object();
    sw_j.set("topology", enumName(kTopologies, int(sw.topo)));
    sw_j.set("radix", double(sw.radix));
    sw_j.set("layers", double(sw.layers));
    sw_j.set("channels", double(sw.channels));
    sw_j.set("flit_bits", double(sw.flitBits));
    sw_j.set("arb", enumName(kArbs, int(sw.arb)));
    sw_j.set("alloc", enumName(kAllocs, int(sw.alloc)));
    sw_j.set("clrg_max_count", double(sw.clrgMaxCount));
    sw_j.set("sched_iters", double(sw.schedIters));
    sw_j.set("sched_seed", double(sw.schedSeed));

    Json sim_j = Json::object();
    sim_j.set("vcs", double(cfg.numVcs));
    sim_j.set("vc_depth", double(cfg.vcDepth));
    sim_j.set("packet_len", double(cfg.packetLen));
    sim_j.set("warmup_cycles", double(cfg.warmupCycles));
    sim_j.set("measure_cycles", double(cfg.measureCycles));
    sim_j.set("seed", double(cfg.seed));

    Json pat_j = Json::object();
    pat_j.set("kind", pattern.kind);
    if (pattern.kind == "hotspot")
        pat_j.set("hot", double(pattern.hot));
    if (pattern.kind == "bursty")
        pat_j.set("mean_burst", pattern.meanBurst);
    if (pattern.kind == "inter-layer-only") {
        pat_j.set("src_layer", double(pattern.srcLayer));
        pat_j.set("dst_layer", double(pattern.dstLayer));
    }
    if (pattern.kind == "adversarial") {
        Json src = Json::array();
        for (std::uint32_t s : pattern.sources)
            src.push(double(s));
        pat_j.set("sources", std::move(src));
        pat_j.set("dst", double(pattern.dst));
    }

    Json loads_j = Json::array();
    for (double l : loads)
        loads_j.push(l);
    Json seeds_j = Json::array();
    for (std::uint64_t s : seeds)
        seeds_j.push(double(s));

    Json doc = Json::object();
    doc.set("name", name);
    doc.set("switch", std::move(sw_j));
    doc.set("sim", std::move(sim_j));
    doc.set("pattern", std::move(pat_j));
    doc.set("loads", std::move(loads_j));
    doc.set("seeds", std::move(seeds_j));
    doc.set("checkpoint_cycles", double(checkpointCycles));
    return doc;
}

std::uint64_t
CampaignSpec::hash() const
{
    Fnv1a h;
    h.str(toJson().dump());
    return h.value();
}

bool
parseCampaignSpec(const Json &doc, CampaignSpec *out, std::string *err)
{
    Ctx c;
    CampaignSpec spec;
    if (!doc.isObject()) {
        if (err)
            *err = "campaign spec: expected a JSON object";
        return false;
    }

    const Json &name = doc["name"];
    if (!name.isNull()) {
        if (!name.isString() || name.asString().empty() ||
            name.asString().size() > 128) {
            if (err)
                *err = "name: expected a non-empty string (<= 128 "
                       "chars)";
            return false;
        }
        spec.name = name.asString();
    }

    const Json &sw = doc["switch"];
    if (!sw.isNull() && !sw.isObject())
        c.fail("switch: expected an object");
    if (c.ok && sw.isObject()) {
        int topo = int(spec.sw.topo), arb = int(spec.sw.arb),
            alloc = int(spec.sw.alloc);
        getEnum(c, sw, "topology", kTopologies, &topo);
        getEnum(c, sw, "arb", kArbs, &arb);
        getEnum(c, sw, "alloc", kAllocs, &alloc);
        spec.sw.topo = Topology(topo);
        spec.sw.arb = ArbScheme(arb);
        spec.sw.alloc = ChannelAlloc(alloc);
        getU32(c, sw, "radix", &spec.sw.radix);
        getU32(c, sw, "layers", &spec.sw.layers);
        getU32(c, sw, "channels", &spec.sw.channels);
        getU32(c, sw, "flit_bits", &spec.sw.flitBits);
        getU32(c, sw, "clrg_max_count", &spec.sw.clrgMaxCount);
        getU32(c, sw, "sched_iters", &spec.sw.schedIters);
        getU64(c, sw, "sched_seed", &spec.sw.schedSeed);
    }
    if (c.ok)
        checkSwitch(c, spec.sw);

    const Json &sim_j = doc["sim"];
    if (!sim_j.isNull() && !sim_j.isObject())
        c.fail("sim: expected an object");
    if (c.ok && sim_j.isObject()) {
        getU32(c, sim_j, "vcs", &spec.cfg.numVcs);
        getU32(c, sim_j, "vc_depth", &spec.cfg.vcDepth);
        getU32(c, sim_j, "packet_len", &spec.cfg.packetLen);
        getU64(c, sim_j, "warmup_cycles", &spec.cfg.warmupCycles);
        getU64(c, sim_j, "measure_cycles", &spec.cfg.measureCycles);
        getU64(c, sim_j, "seed", &spec.cfg.seed);
    }
    if (c.ok) {
        if (spec.cfg.numVcs < 1 || spec.cfg.numVcs > 64)
            c.fail("sim.vcs must be in [1, 64]");
        else if (spec.cfg.vcDepth < 1 || spec.cfg.vcDepth > 1024)
            c.fail("sim.vc_depth must be in [1, 1024]");
        else if (spec.cfg.packetLen < 1 || spec.cfg.packetLen > 1024)
            c.fail("sim.packet_len must be in [1, 1024]");
        else if (spec.cfg.measureCycles < 1)
            c.fail("sim.measure_cycles must be >= 1");
        else if (spec.cfg.warmupCycles + spec.cfg.measureCycles >
                 std::uint64_t(1) << 40)
            c.fail("sim: run length over 2^40 cycles");
    }

    if (c.ok)
        parsePattern(c, doc["pattern"], spec.sw, &spec.pattern);

    if (c.ok) {
        if (!doc.has("loads"))
            c.fail("loads: required");
        else
            parseLoads(c, doc["loads"], &spec.loads);
    }

    if (c.ok && doc.has("seeds")) {
        const Json &seeds = doc["seeds"];
        if (!seeds.isArray() || seeds.size() == 0) {
            c.fail("seeds: expected a non-empty array");
        } else {
            for (const Json &s : seeds.items()) {
                double d = s.asNumber(-1.0);
                if (!s.isNumber() || d < 0 || d != std::floor(d) ||
                    d > 9.007199254740992e15) {
                    c.fail("seeds: expected non-negative integers");
                    break;
                }
                spec.seeds.push_back(static_cast<std::uint64_t>(d));
            }
        }
    }
    if (c.ok && spec.seeds.empty())
        spec.seeds.push_back(spec.cfg.seed);
    if (c.ok && spec.seeds.size() > 10000)
        c.fail("seeds: too many");
    if (c.ok && spec.loads.size() * spec.seeds.size() > 1000000)
        c.fail("campaign describes > 1e6 points");

    if (c.ok)
        getU64(c, doc, "checkpoint_cycles", &spec.checkpointCycles);

    if (!c.ok) {
        if (err)
            *err = c.err;
        return false;
    }
    *out = std::move(spec);
    return true;
}

void
jsonMerge(Json *base, const Json &overlay)
{
    if (!base->isObject() || !overlay.isObject()) {
        *base = overlay;
        return;
    }
    for (const auto &[k, v] : overlay.members()) {
        if (base->has(k) && (*base)[k].isObject() && v.isObject())
            jsonMerge(&base->ref(k), v);
        else
            base->set(k, v);
    }
}

namespace {

bool
loadSpecFileRec(const std::string &path, Json *out, std::string *err,
                std::set<std::string> *visited, int depth)
{
    namespace fs = std::filesystem;
    if (depth > 16) {
        *err = path + ": include chain too deep";
        return false;
    }
    std::error_code ec;
    std::string canon = fs::weakly_canonical(path, ec).string();
    if (canon.empty())
        canon = path;
    if (!visited->insert(canon).second) {
        *err = path + ": include cycle";
        return false;
    }

    std::ifstream f(path);
    if (!f) {
        *err = path + ": cannot open";
        return false;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    Json doc;
    std::string perr;
    if (!Json::parse(ss.str(), &doc, &perr)) {
        *err = path + ": " + perr;
        return false;
    }
    if (!doc.isObject()) {
        *err = path + ": spec file must contain a JSON object";
        return false;
    }

    // Resolve includes relative to this file, parent-first: the
    // including file's own keys override everything it includes.
    Json merged = Json::object();
    const Json &inc = doc["include"];
    if (!inc.isNull()) {
        std::vector<std::string> files;
        if (inc.isString()) {
            files.push_back(inc.asString());
        } else if (inc.isArray()) {
            for (const Json &i : inc.items()) {
                if (!i.isString()) {
                    *err = path + ": include: expected file names";
                    return false;
                }
                files.push_back(i.asString());
            }
        } else {
            *err = path + ": include: expected a file or array";
            return false;
        }
        fs::path dir = fs::path(path).parent_path();
        for (const std::string &file : files) {
            fs::path ip = fs::path(file);
            if (ip.is_relative())
                ip = dir / ip;
            Json sub;
            if (!loadSpecFileRec(ip.string(), &sub, err, visited,
                                 depth + 1))
                return false;
            jsonMerge(&merged, sub);
        }
    }

    Json self = Json::object();
    for (const auto &[k, v] : doc.members()) {
        if (k != "include")
            self.set(k, v);
    }
    jsonMerge(&merged, self);
    visited->erase(canon); // diamond includes are fine, only cycles fail
    *out = std::move(merged);
    return true;
}

} // namespace

bool
loadSpecFile(const std::string &path, Json *out, std::string *err)
{
    std::set<std::string> visited;
    return loadSpecFileRec(path, out, err, &visited, 0);
}

bool
applySpecOverride(Json *doc, std::string_view assignment,
                  std::string *err)
{
    std::size_t eq = assignment.find('=');
    if (eq == std::string_view::npos || eq == 0) {
        *err = "override must look like path.to.key=value";
        return false;
    }
    std::string_view pathPart = assignment.substr(0, eq);
    std::string_view valuePart = assignment.substr(eq + 1);

    Json value;
    if (!Json::parse(valuePart, &value))
        value = Json(std::string(valuePart)); // bare string

    Json *node = doc;
    std::size_t start = 0;
    while (true) {
        std::size_t dot = pathPart.find('.', start);
        std::string_view key = pathPart.substr(
            start, dot == std::string_view::npos ? dot : dot - start);
        if (key.empty()) {
            *err = "override path has an empty segment";
            return false;
        }
        if (dot == std::string_view::npos) {
            node->set(key, std::move(value));
            return true;
        }
        node = &node->ref(key);
        start = dot + 1;
    }
}

} // namespace hirise::svc
