/**
 * @file
 * serve_mix: hirise_served with its memory cache only, driven by one
 * client over one connection in a closed loop. A pass is four new
 * ("cold") jobs of 32 points each -- two streaming shards, so the
 * first row leaves well before the last -- each followed by six
 * resubmits of the four 800-row "warm" jobs, which the daemon serves
 * entirely from its cache. The warm working set is 3200 points, 78% of
 * the memory tier's default 4096 entries, and the LRU order keeps it
 * resident while cold jobs stream through. Jobs are timed in CPU time
 * of the client thread and the daemon (see CpuClock); a warm job's
 * ~10 ms dwarfs the scheduler ticks and clock readings around it.
 */

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/random.hh"
#include "harness/experiments.hh"
#include "points.hh"
#include "svc/campaign.hh"
#include "svc/client.hh"
#include "svc/frame.hh"
#include "workloads.hh"

extern char **environ;

namespace perfbench {

namespace {

using hirise::ArbScheme;
using hirise::SwitchSpec;
using hirise::sim::SimResult;
namespace svc = hirise::svc;

constexpr std::size_t kColdPerPass = 4;
constexpr std::size_t kWarmPerCold = 6;
constexpr std::size_t kWarmJobs = 4;
/** The daemon's default streaming shard (runCampaign: 2 x 8 batch
 *  lanes); the in-process replay cuts cold jobs the same way. */
constexpr std::size_t kShardPoints = 16;

/** A running hirise_served child on its own socket. The child dies
 *  with the benchmark (PR_SET_PDEATHSIG) and the destructor kills and
 *  reaps it, so no daemon outlives a run on any path. */
class Daemon
{
  public:
    Daemon(const RunOptions &opt, int serial)
        : socket_(opt.workDir + "/served-" + std::to_string(::getpid()) +
                  "-" + std::to_string(serial) + ".sock")
    {
        // Everything the child needs is built before fork(): between
        // fork and exec only async-signal-safe calls are allowed.
        std::vector<std::string> env;
        for (char **e = environ; *e; ++e) {
            if (std::strncmp(*e, "HIRISE_", 7) != 0)
                env.emplace_back(*e);
        }
        env.push_back("HIRISE_THREADS=" +
                      std::to_string(opt.poolThreads));
        std::vector<char *> envp;
        for (auto &s : env)
            envp.push_back(s.data());
        envp.push_back(nullptr);
        std::vector<std::string> args = {opt.servedBinary, "--socket",
                                         socket_};
        std::vector<char *> argv;
        for (auto &s : args)
            argv.push_back(s.data());
        argv.push_back(nullptr);
        int log = ::open((opt.workDir + "/served.log").c_str(),
                         O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
        const pid_t parent = ::getpid();

        pid_ = ::fork();
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent)
                ::_exit(127);
            if (log >= 0) {
                ::dup2(log, 1);
                ::dup2(log, 2);
            }
            ::execve(argv[0], argv.data(), envp.data());
            ::_exit(127);
        }
        if (log >= 0)
            ::close(log);
        if (pid_ > 0)
            cpu_ = CpuClock::process(pid_);
    }
    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        ::unlink(socket_.c_str());
    }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool spawned() const { return pid_ > 0; }

    /** CPU seconds the daemon has used; exact only once settle() has
     *  returned (see CpuClock). */
    double cpuSeconds() const { return cpu_.now(); }

    /** Wait, up to 50 ms, until none of the daemon's threads is
     *  running: a thread that blocks has its run time accounted. */
    void
    settle() const
    {
        const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
        auto t0 = Clock::now();
        while (secondsSince(t0) < 0.05) {
            bool running = false;
            if (DIR *d = ::opendir(dir.c_str())) {
                while (dirent *e = ::readdir(d)) {
                    if (e->d_name[0] == '.')
                        continue;
                    std::ifstream in(dir + "/" + e->d_name + "/stat");
                    std::string stat;
                    std::getline(in, stat);
                    // "tid (comm) S ...": the state follows the comm.
                    auto rp = stat.rfind(')');
                    if (rp != std::string::npos && rp + 2 < stat.size() &&
                        stat[rp + 2] == 'R')
                        running = true;
                }
                ::closedir(d);
            }
            if (!running)
                return;
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    }

    /** Connect (retrying while the daemon binds) and ping. */
    std::unique_ptr<svc::Client>
    connect(double timeout_s)
    {
        auto t0 = Clock::now();
        std::string err;
        while (secondsSince(t0) < timeout_s) {
            auto c = svc::Client::connectUnix(socket_, &err);
            if (c) {
                svc::Json req = svc::Json::object(), resp;
                req.set("op", "ping");
                if (c->request(req, &resp, &err) && resp["ok"].asBool())
                    return c;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        return nullptr;
    }

    /** Peak resident set so far (VmHWM), MiB; 0 if unreadable. */
    double
    peakRssMb() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("VmHWM:", 0) == 0)
                return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
        return 0.0;
    }

    /** Graceful shutdown through @p c; true when the daemon exits 0
     *  within ten seconds (else it is killed). */
    bool
    shutdown(svc::Client &c)
    {
        svc::Json req = svc::Json::object(), resp;
        req.set("op", "shutdown");
        std::string err;
        c.request(req, &resp, &err);
        int status = 0;
        auto t0 = Clock::now();
        while (secondsSince(t0) < 10.0) {
            pid_t r = ::waitpid(pid_, &status, WNOHANG);
            if (r == pid_) {
                pid_ = -1;
                return WIFEXITED(status) && WEXITSTATUS(status) == 0;
            }
            if (r < 0 && errno != EINTR)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return false; // the destructor kills it
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
    CpuClock cpu_;
};

struct JobSpec
{
    svc::Json doc;          //!< what is submitted
    svc::CampaignSpec spec; //!< doc parsed, for in-process runs
    std::size_t rows = 0;
};

JobSpec
makeSpec(const SwitchSpec &sw, const char *pattern, Length len,
         std::vector<double> loads, std::vector<std::uint64_t> seeds,
         std::string name)
{
    svc::CampaignSpec s;
    s.name = std::move(name);
    s.sw = sw;
    s.cfg.warmupCycles = len.warmup;
    s.cfg.measureCycles = len.measure;
    s.pattern.kind = pattern;
    if (s.pattern.kind == "hotspot")
        s.pattern.hot = sw.radix - 1;
    s.loads = std::move(loads);
    s.seeds = std::move(seeds);
    JobSpec j;
    j.doc = s.toJson();
    std::string err;
    if (!svc::parseCampaignSpec(j.doc, &j.spec, &err))
        fatal("benchmark spec rejected: %s", err.c_str());
    j.rows = j.spec.points().size();
    return j;
}

/** A seed that survives the JSON wire format (integral doubles are
 *  exact below 2^53). */
std::uint64_t
wireSeed(std::uint64_t seed, std::uint64_t index)
{
    return hirise::shardSeed(seed, index) >> 12;
}

/** Cold job @p k: one shape for every cold job (Hi-Rise CLRG, uniform
 *  traffic, 16 loads x 2 seeds), so their latencies form one
 *  population; seeds and a +-2% load jitter come from the workload
 *  seed, so every cold job is new to the cache. */
JobSpec
coldJob(std::uint64_t seed, std::uint64_t k)
{
    hirise::Rng rng(hirise::shardSeed(seed, 2 * k + 1000));
    std::vector<double> loads;
    // 0.02 .. 0.86 jittered, then 1.0 (campaign loads are in (0, 1]):
    // all three simulator regimes.
    for (int i = 0; i < 15; ++i)
        loads.push_back((0.02 + 0.06 * i) * (0.98 + 0.04 * rng.uniform()));
    loads.push_back(1.0);
    std::uint64_t s0 = wireSeed(seed, 2 * k + 1001);
    return makeSpec(hirise::harness::specHiRise(4, ArbScheme::Clrg),
                    "uniform-random", kColdJobLength, std::move(loads),
                    {s0, s0 + 1}, "cold-" + std::to_string(k));
}

/** Warm job @p w: 100 loads x 8 seeds = 800 rows of short points. */
JobSpec
warmJob(std::uint64_t seed, std::uint64_t w)
{
    using namespace hirise::harness;
    static const SwitchSpec designs[] = {
        specHiRise(4, ArbScheme::Clrg), spec2d(),
        specHiRise(2, ArbScheme::LayerLrg), specFolded()};
    std::vector<double> loads;
    for (int i = 0; i < 100; ++i)
        loads.push_back(0.005 + 0.01 * i);
    std::vector<std::uint64_t> seeds;
    for (int i = 0; i < 8; ++i)
        seeds.push_back(wireSeed(seed, 100 * w + i));
    return makeSpec(designs[w % 4], "uniform-random", kWarmJobLength,
                    std::move(loads), std::move(seeds),
                    "warm-" + std::to_string(w));
}

/** One job as the client saw it. */
struct JobRun
{
    bool ok = false;
    std::string error;
    double ackMs = 0.0;     //!< submit -> ack, wall
    double streamSec = 0.0; //!< ack -> last row, wall
    /** CPU ms of the client thread and the daemon from submit to the
     *  first row (the daemon's share read while it runs, so up to a
     *  tick short per running thread) and to the job's end. */
    double firstCpuMs = 0.0, cpuMs = 0.0;
    std::vector<std::string> rows;
    std::uint64_t cacheMisses = 0;
};

/** Run @p job on @p d through @p c, the daemon idle before and after. */
JobRun
submit(svc::Client &c, const Daemon &d, const JobSpec &job)
{
    JobRun r;
    svc::Json req = svc::Json::object();
    req.set("op", "submit");
    req.set("spec", job.doc);
    req.set("stream", true);
    r.rows.reserve(job.rows);
    std::string err, payload;
    const CpuClock self = CpuClock::callingThread();
    auto t0 = Clock::now();
    const double s0 = self.now(), d0 = d.cpuSeconds();
    if (!c.send(req, &err) || !c.recvRaw(&payload, &err)) {
        r.error = "submit: " + err;
        return r;
    }
    auto acked = Clock::now();
    r.ackMs = 1e3 * secondsBetween(t0, acked);
    svc::Json ack;
    if (!svc::Json::parse(payload, &ack) || !ack["ok"].asBool()) {
        r.error = "refused: " + payload;
        return r;
    }
    Clock::time_point last = acked;
    while (true) {
        if (!c.recvRaw(&payload, &err)) {
            r.error = "stream: " + err;
            return r;
        }
        if (payload.rfind("{\"done\":", 0) == 0)
            break;
        last = Clock::now();
        if (r.rows.empty()) {
            r.firstCpuMs =
                1e3 * ((self.now() - s0) + (d.cpuSeconds() - d0));
        }
        r.rows.push_back(std::move(payload));
    }
    const double s1 = self.now();
    d.settle();
    r.cpuMs = 1e3 * ((s1 - s0) + (d.cpuSeconds() - d0));
    r.streamSec = secondsBetween(acked, last);
    svc::Json term;
    if (!svc::Json::parse(payload, &term) ||
        term["state"].asString() != "done" ||
        r.rows.size() != job.rows) {
        r.error = "terminal: " + payload;
        return r;
    }
    r.cacheMisses = std::uint64_t(term["cache_misses"].asNumber());
    r.ok = true;
    return r;
}

std::uint64_t
rowsDigest(const std::vector<std::string> &rows)
{
    std::uint64_t h = fnv1a("");
    for (const std::string &row : rows)
        h = fnv1a(row, h);
    return h;
}

std::string
u64Bytes(std::uint64_t v)
{
    std::string out;
    putBytes(out, v);
    return out;
}

/** In-process svc::runCampaign rows of @p job on a private cache. */
std::vector<std::string>
inProcessRows(const JobSpec &job)
{
    hirise::sim::SimCache cache;
    svc::RunCampaignOptions o;
    o.cache = &cache;
    std::vector<std::string> rows;
    o.onRows = [&](std::size_t, std::vector<std::string> batch) {
        for (auto &r : batch)
            rows.push_back(std::move(r));
    };
    svc::runCampaign(job.spec, o);
    return rows;
}

void
compareRows(Checker &check, const std::string &what,
            const std::vector<std::string> &got,
            const std::vector<std::string> &want)
{
    if (got.size() != want.size()) {
        check.fail(what + ": row count");
        return;
    }
    for (std::size_t i = 0; i < got.size(); ++i)
        check.same(what, got[i], want[i]);
}

struct LoopResult
{
    Samples passCpu, passRate, firstMs, ackMs; //!< ackMs wall
    Latency coldMs, warmMs;
    double warmRows = 0.0, warmStreamSec = 0.0;
    double peakRssMb = 0.0;
    std::vector<JobSpec> coldSpecs; //!< every cold job submitted
    std::vector<std::pair<std::size_t, std::vector<std::string>>>
        sampled; //!< cold job index, daemon rows
    std::vector<std::vector<std::string>> warmOriginals;
};

/** The closed loop: warm-set build (untimed), then passes. */
LoopResult
closedLoop(const RunOptions &opt, Daemon &d, svc::Client &c,
           Checker &check, std::uint64_t &attempted, std::size_t min_passes,
           double seconds)
{
    LoopResult L;
    std::vector<JobSpec> warm;
    std::vector<std::uint64_t> warmDigest;
    for (std::size_t w = 0; w < kWarmJobs; ++w) {
        warm.push_back(warmJob(opt.seed, w));
        JobRun r = submit(c, d, warm.back());
        ++attempted;
        if (!r.ok)
            check.fail("warm-set job: " + r.error);
        warmDigest.push_back(rowsDigest(r.rows));
        L.warmOriginals.push_back(std::move(r.rows));
    }
    d.settle();
    auto start = Clock::now();
    std::size_t k = 0, w = 0;
    for (std::size_t pass = 0;
         morePasses(start, seconds, pass, min_passes); ++pass) {
        double pass_cpu = 0.0, pc = 0.0;
        Samples coldPass, warmPass;
        for (std::size_t ci = 0; ci < kColdPerPass; ++ci, ++k) {
            L.coldSpecs.push_back(coldJob(opt.seed, k));
            JobRun r = submit(c, d, L.coldSpecs.back());
            ++attempted;
            if (!r.ok) {
                check.fail("cold job: " + r.error);
                continue;
            }
            pass_cpu += r.cpuMs * 1e-3;
            const svc::CampaignSpec &cs = L.coldSpecs.back().spec;
            pc += double(r.cacheMisses) * double(cs.sw.radix) *
                  double(cs.cfg.warmupCycles + cs.cfg.measureCycles);
            L.firstMs.add(r.firstCpuMs);
            coldPass.add(r.cpuMs);
            L.ackMs.add(r.ackMs);
            if (k == 0 || hirise::shardSeed(opt.seed, k) % 8 == 0)
                L.sampled.emplace_back(k, std::move(r.rows));
            for (std::size_t wi = 0; wi < kWarmPerCold; ++wi, ++w) {
                const std::size_t id = w % kWarmJobs;
                JobRun wr = submit(c, d, warm[id]);
                ++attempted;
                if (!wr.ok) {
                    check.fail("warm job: " + wr.error);
                    continue;
                }
                pass_cpu += wr.cpuMs * 1e-3;
                warmPass.add(wr.cpuMs);
                L.ackMs.add(wr.ackMs);
                L.warmRows += double(wr.rows.size());
                L.warmStreamSec += wr.streamSec;
                // Checks run between jobs, outside every timed window.
                check.same("warm resubmit vs its original",
                           u64Bytes(rowsDigest(wr.rows)),
                           u64Bytes(warmDigest[id]));
                if (wr.cacheMisses != 0)
                    check.fail("warm resubmit missed the cache");
            }
        }
        L.coldMs.addPass(coldPass);
        L.warmMs.addPass(warmPass);
        L.passCpu.add(pass_cpu);
        L.passRate.add(pc / pass_cpu);
        if (pass == 0)
            L.peakRssMb = d.peakRssMb(); // after a fixed amount of work
    }
    return L;
}

/** Daemon rows must equal in-process svc::runCampaign rows. */
void
checkInProcess(Checker &check, const LoopResult &L, std::uint64_t seed)
{
    // The in-process campaigns run side by side: one at a time, a
    // shard's few lane groups leave most of the pool idle.
    const std::size_t nw = L.warmOriginals.size();
    std::vector<JobSpec> jobs;
    for (std::size_t w = 0; w < nw; ++w)
        jobs.push_back(warmJob(seed, w));
    for (const auto &sampled : L.sampled)
        jobs.push_back(L.coldSpecs[sampled.first]);
    std::vector<std::vector<std::string>> want(jobs.size());
    parallelFor(hirise::ThreadPool::global(), jobs.size(),
                [&](std::size_t i) { want[i] = inProcessRows(jobs[i]); });
    for (std::size_t w = 0; w < nw; ++w) {
        compareRows(check, "warm job vs in-process runCampaign",
                    L.warmOriginals[w], want[w]);
    }
    for (std::size_t i = 0; i < L.sampled.size(); ++i) {
        compareRows(check, "cold job vs in-process runCampaign",
                    L.sampled[i].second, want[nw + i]);
    }
}

} // namespace

Outcome
serveMix(const RunOptions &opt, Checker &check, Tracer &tracer)
{
    Outcome out;
    // Set-up: daemon exec -> first ping reply, CPU seconds of the
    // daemon and of the calling thread, median of cold starts.
    Samples setup;
    const CpuClock self = CpuClock::callingThread();
    for (int i = 0; i < 15; ++i) {
        const double s0 = self.now();
        Daemon d(opt, i);
        auto c = d.spawned() ? d.connect(10.0) : nullptr;
        if (!c) {
            check.fail("daemon did not answer ping");
            out.attempted += 1;
            break;
        }
        const double s1 = self.now();
        d.settle();
        setup.add((s1 - s0) + d.cpuSeconds());
        if (!d.shutdown(*c))
            check.fail("daemon did not exit cleanly");
    }

    Daemon d(opt, 15);
    auto c = d.spawned() ? d.connect(10.0) : nullptr;
    if (!c) {
        check.fail("daemon did not answer ping");
        out.attempted += 1;
        reportLayers(out.report, {});
        return out;
    }

    if (!opt.trace) {
        LoopResult L = closedLoop(opt, d, *c, check, out.attempted, 1,
                                  opt.seconds);
        if (!d.shutdown(*c))
            check.fail("daemon did not exit cleanly");
        checkInProcess(check, L, opt.seed);

        reportEndToEnd(out.report, setup, L.passCpu, L.passRate,
                       L.peakRssMb, "VmHWM after pass 1", L.firstMs,
                       L.coldMs, L.warmMs);
        return out;
    }

    // Traced run: a short loop for the wire-level layer numbers, then
    // the loop's own inputs replayed in-process layer by layer.
    auto wl0 = Clock::now();
    LoopResult L = closedLoop(opt, d, *c, check, out.attempted, 2, 0.0);
    if (!d.shutdown(*c))
        check.fail("daemon did not exit cleanly");
    checkInProcess(check, L, opt.seed);

    std::map<std::string, double> m;
    m["svc.ack_ms"] = L.ackMs.median();
    m["svc.stream_rows_per_s"] = L.warmRows / L.warmStreamSec;

    // Cold jobs: the campaign path shard by shard (sweep spans), then
    // the same shards replayed on that path untraced and traced.
    hirise::ThreadPool pool(opt.poolThreads);
    std::vector<Family> fams;
    std::vector<std::vector<std::vector<hirise::sim::RunPoint>>> shards;
    for (const JobSpec &j : L.coldSpecs) {
        fams.push_back(Family{j.spec.name, j.spec.sw, j.spec.cfg,
                              j.spec.patternFactory()});
        auto pts = j.spec.points();
        shards.emplace_back();
        for (std::size_t f = 0; f < pts.size(); f += kShardPoints) {
            shards.back().emplace_back(
                pts.begin() + f,
                pts.begin() + std::min(pts.size(), f + kShardPoints));
        }
    }
    double busy = 0.0;
    std::uint64_t simulated = 0;
    std::vector<std::vector<SimResult>> campaign(fams.size());
    {
        hirise::sim::SimCache cache;
        hirise::sim::CampaignOptions copt{&pool, &cache};
        for (std::size_t k = 0; k < fams.size(); ++k) {
            for (const auto &sh : shards[k]) {
                auto t0 = Clock::now();
                auto r = hirise::sim::runPointsCached(
                    fams[k].spec, fams[k].cfg, fams[k].make, sh, copt);
                auto t1 = Clock::now();
                busy += secondsBetween(t0, t1);
                tracer.add("shard", "sweep", k, t0, t1);
                campaign[k].insert(campaign[k].end(), r.begin(), r.end());
            }
        }
        simulated = cache.stats().misses;
    }
    Replayer plain(pool, nullptr), traced(pool, &tracer);
    auto replay = [&](Replayer &rep) {
        auto t0 = Clock::now();
        std::vector<std::vector<SimResult>> res(fams.size());
        for (std::size_t k = 0; k < fams.size(); ++k) {
            for (const auto &sh : shards[k]) {
                auto r = rep.evalPoints(fams[k], sh, k);
                res[k].insert(res[k].end(), r.begin(), r.end());
            }
        }
        return std::make_pair(secondsSince(t0), res);
    };
    auto [plain_wall, plain_res] = replay(plain);
    auto [traced_wall, traced_res] = replay(traced);
    for (std::size_t k = 0; k < fams.size(); ++k) {
        for (std::size_t i = 0; i < campaign[k].size(); ++i) {
            std::string want = resultBytes(campaign[k][i]);
            check.same("untraced replay vs campaign",
                       resultBytes(plain_res[k][i]), want);
            check.same("traced replay vs campaign",
                       resultBytes(traced_res[k][i]), want);
        }
    }
    out.attempted += 2 * plain.stats().points;
    m["sweep.busy_s"] = busy;
    m["sweep.points_per_s"] = double(simulated) / busy;
    pointLayerMetrics(plain.stats(), traced.stats(), opt.poolThreads + 1,
                      m);

    // Service codec layers on the loop's own specs and rows.
    Samples parse;
    for (const JobSpec &j : L.coldSpecs) {
        svc::CampaignSpec s;
        std::string err;
        auto t0 = Clock::now();
        svc::parseCampaignSpec(j.doc, &s, &err);
        parse.add(1e6 * secondsSince(t0));
    }
    m["svc.parse_us"] = parse.median();
    {
        std::size_t n = 0;
        auto t0 = Clock::now();
        for (std::size_t k = 0; k < fams.size(); ++k) {
            auto pts = L.coldSpecs[k].spec.points();
            for (std::size_t i = 0; i < campaign[k].size(); ++i, ++n) {
                std::string row = svc::resultRow(i, pts[i], campaign[k][i]);
                if (row.empty())
                    check.fail("empty row");
            }
        }
        m["svc.row_ns"] = 1e9 * secondsSince(t0) / double(n);
    }
    {
        std::size_t n = 0;
        svc::FrameDecoder dec;
        std::string frame;
        auto t0 = Clock::now();
        for (const auto &rows : L.warmOriginals) {
            for (const std::string &row : rows) {
                dec.feed(svc::frameEncode(row));
                dec.next(&frame);
                ++n;
            }
        }
        m["svc.frame_ns"] = 1e9 * secondsSince(t0) / double(n);
    }

    // Cache read side: the warm set stored, then the warm resubmits'
    // keys computed and looked up as the daemon serves them.
    {
        hirise::sim::SimCache cache;
        const SimResult &value = campaign.front().front();
        double lookup_ns = 0.0, store_ns = 0.0;
        std::uint64_t lookups = 0, hits = 0, stores = 0;
        std::vector<JobSpec> warm;
        std::vector<std::string> descs;
        for (std::size_t w = 0; w < kWarmJobs; ++w) {
            warm.push_back(warmJob(opt.seed, w));
            descs.push_back(warm[w].spec.patternFactory()()->descriptor());
        }
        auto cfgOf = [](const JobSpec &j, const hirise::sim::RunPoint &pt) {
            hirise::sim::SimConfig cfg = j.spec.cfg;
            cfg.injectionRate = pt.load;
            cfg.seed = pt.seed;
            return cfg;
        };
        for (std::size_t w = 0; w < kWarmJobs; ++w) {
            for (const auto &pt : warm[w].spec.points()) {
                std::uint64_t key = hirise::sim::SimCache::key(
                    warm[w].spec.sw, cfgOf(warm[w], pt), descs[w]);
                auto t0 = Clock::now();
                cache.store(key, value);
                store_ns += 1e9 * secondsSince(t0);
                ++stores;
            }
        }
        for (std::size_t r = 0; r < kColdPerPass * kWarmPerCold; ++r) {
            const std::size_t w = r % kWarmJobs;
            for (const auto &pt : warm[w].spec.points()) {
                hirise::sim::SimConfig cfg = cfgOf(warm[w], pt);
                SimResult got;
                auto t0 = Clock::now();
                std::uint64_t key =
                    hirise::sim::SimCache::key(warm[w].spec.sw, cfg, descs[w]);
                bool hit = cache.lookup(key, &got);
                lookup_ns += 1e9 * secondsSince(t0);
                ++lookups;
                hits += hit;
            }
        }
        m["sim_cache.hit_ratio"] = double(hits) / double(lookups);
        m["sim_cache.lookup_ns"] = lookup_ns / double(lookups);
        m["sim_cache.store_ns"] = store_ns / double(stores);
    }
    tracer.add("serve_mix", "workload", 0, wl0, Clock::now());
    m["trace.overhead_s"] = traced_wall - plain_wall;
    m["trace.spans"] = double(tracer.size());
    reportLayers(out.report, m);
    return out;
}

} // namespace perfbench
