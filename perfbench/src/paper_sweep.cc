/**
 * @file
 * paper_sweep: the in-process campaign behind Tables IV/V and Figs
 * 10/11, from a cold private SimCache each pass. Every Table IV/V
 * design gets, per seed, a uniform-traffic load sweep streamed as two
 * 8-point shards that span all three simulator regimes (the "jobs"
 * whose first/last-row latency is sampled; they are alike in shape so
 * their latency distribution is unimodal). Four key designs also get
 * hotspot and adversarial sweeps and a speculative saturation search,
 * and a flat radix-256 switch a uniform sweep; these belong to the
 * pass but not to the latency population. The pass ends by
 * resubmitting every sampled job twice against the warm cache.
 */

#include <malloc.h>

#include <algorithm>
#include <tuple>

#include "common/random.hh"
#include "harness/experiments.hh"
#include "points.hh"
#include "traffic/pattern.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using hirise::ArbScheme;
using hirise::SwitchSpec;
using hirise::ThreadPool;
using hirise::sim::CampaignOptions;
using hirise::sim::PatternFactory;
using hirise::sim::RunPoint;
using hirise::sim::SimCache;
using hirise::sim::SimResult;

constexpr int kSearchIters = 12;
constexpr int kSearchDepth = 2;
/** Timed warm resubmit rounds per pass. */
constexpr int kWarmRounds = 20;

/** Two interleaved load grids, each with three loads at or below the
 *  event-core ceiling (0.125), which run as scalar points. The first
 *  adds five mid loads, the second five saturating ones; either five
 *  form one BatchSim lane group on the campaign path, so every group
 *  runs in a single regime. */
constexpr std::size_t kShardPoints = 8;
constexpr double kLoads[2][kShardPoints] = {
    {0.03, 0.07, 0.11, 0.2, 0.35, 0.5, 0.65, 0.8},
    {0.05, 0.09, 0.12, 1.0, 1.1, 1.2, 1.3, 1.4},
};

/** One unit of the pass: shards run in order through runPointsCached,
 *  then the optional saturation search. */
struct Job
{
    Family family;
    std::vector<std::vector<RunPoint>> shards;
    bool search = false;
    bool sampled = false; //!< in the job-latency population
};

PatternFactory
pattern(int kind, std::uint32_t radix)
{
    switch (kind) {
    case 0:
        return [radix] {
            return std::make_shared<hirise::traffic::UniformRandom>(
                radix);
        };
    case 1:
        return [radix] {
            return std::make_shared<hirise::traffic::Hotspot>(
                radix, radix - 1);
        };
    default:
        return [radix] {
            return std::make_shared<hirise::traffic::Adversarial>(
                std::vector<std::uint32_t>{3, 7, 11, 15, 20}, radix - 1,
                radix);
        };
    }
}

/** The pass's jobs, every input derived from @p seed: per-job seeds
 *  and a +-2% jitter of the sub-saturation loads, which never moves a
 *  load across a regime boundary. */
std::vector<Job>
makeJobs(std::uint64_t seed)
{
    using namespace hirise::harness;
    // (label, spec, key design: searched and run under every pattern)
    std::vector<std::tuple<std::string, SwitchSpec, bool>> designs = {
        {"2d", spec2d(), true},
        {"folded", specFolded(), true},
        {"hirise-c1-l2l", specHiRise(1), false},
        {"hirise-c2-l2l", specHiRise(2), false},
        {"hirise-c3-l2l", specHiRise(3), false},
        {"hirise-c4-l2l", specHiRise(4), true},
        {"hirise-c4-wlrg", specHiRise(4, ArbScheme::Wlrg), false},
        {"hirise-c4-clrg", specHiRise(4, ArbScheme::Clrg), true},
    };
    static const char *patternNames[] = {"uniform", "hotspot",
                                         "adversarial"};
    std::vector<Job> jobs;
    auto add = [&](const std::string &name, const SwitchSpec &spec,
                   int kind, int shards, bool search, bool sampled) {
        Job j;
        std::uint64_t idx = jobs.size();
        j.family.label = name + "/" + patternNames[kind];
        j.family.spec = spec;
        j.family.cfg.warmupCycles = kSweepLength.warmup;
        j.family.cfg.measureCycles = kSweepLength.measure;
        j.family.cfg.seed = hirise::shardSeed(seed, 3 * idx);
        j.family.make = pattern(kind, spec.radix);
        hirise::Rng rng(hirise::shardSeed(seed, 3 * idx + 1));
        const std::uint64_t ps = hirise::shardSeed(seed, 3 * idx + 2);
        for (int s = 0; s < shards; ++s) {
            j.shards.emplace_back();
            for (double load : kLoads[s]) {
                double l = load < 1.0
                               ? load * (0.98 + 0.04 * rng.uniform())
                               : load;
                j.shards.back().push_back(RunPoint{l, ps});
            }
        }
        j.search = search;
        j.sampled = sampled;
        jobs.push_back(std::move(j));
    };
    for (int rep = 0; rep < 2; ++rep) {
        for (const auto &[name, spec, key] : designs)
            add(name, spec, 0, 2, false, true);
    }
    for (const auto &[name, spec, key] : designs) {
        if (key) {
            add(name, spec, 0, 0, true, false);
            add(name, spec, 1, 1, false, false);
            add(name, spec, 2, 1, false, false);
        }
    }
    add("flat256", spec2d(256), 0, 1, false, false);
    return jobs;
}

/** Everything one pass produced. */
struct Pass
{
    double cpuSec = 0.0;
    double portCycles = 0.0;
    Samples firstRowMs, lastRowMs, warmMs; //!< CPU ms

    std::vector<std::vector<SimResult>> cold; //!< per job, both shards
    std::vector<std::vector<SimResult>> warm; //!< both resubmit rounds
    std::vector<double> saturation; //!< per job (0 without search)
    std::uint64_t requested = 0;
    std::uint64_t simulated = 0;
    double busySec = 0.0; //!< inside campaign calls
    std::uint64_t searches = 0;
    std::uint64_t searchSims = 0; //!< points the searches simulated
};

Pass
runPass(const std::vector<Job> &jobs, ThreadPool &pool,
        const CpuClock &cpu, Tracer *tracer)
{
    Pass p;
    const double cpu0 = cpu.now();
    SimCache cache;
    CampaignOptions copt;
    copt.pool = &pool;
    copt.cache = &cache;

    // One span per campaign call; spans of one job share its id.
    auto call = [&](const char *name, std::uint64_t id, auto &&fn) {
        std::uint64_t misses = cache.stats().misses;
        auto t0 = Clock::now();
        fn();
        auto t1 = Clock::now();
        p.busySec += secondsBetween(t0, t1);
        std::uint64_t sims = cache.stats().misses - misses;
        p.simulated += sims;
        p.portCycles +=
            double(sims) * double(jobs[id].family.portCyclesPerPoint());
        if (tracer)
            tracer->add(name, "sweep", id, t0, t1,
                        {{"simulated", double(sims)}});
        return sims;
    };
    // A job's shards in order; @p done, if given, gets the CPU clock
    // after each.
    auto shards = [&](std::size_t id, const char *name,
                      std::vector<SimResult> &out,
                      std::vector<double> *done) {
        const Family &f = jobs[id].family;
        for (const auto &sh : jobs[id].shards) {
            call(name, id, [&] {
                auto r = hirise::sim::runPointsCached(f.spec, f.cfg, f.make,
                                                      sh, copt);
                out.insert(out.end(), r.begin(), r.end());
            });
            if (done)
                done->push_back(cpu.now());
            p.requested += sh.size();
        }
    };

    for (std::size_t id = 0; id < jobs.size(); ++id) {
        const Job &j = jobs[id];
        std::vector<SimResult> rows;
        std::vector<double> done;
        const double c0 = cpu.now();
        shards(id, "shard", rows, &done);
        if (j.sampled) {
            p.firstRowMs.add(1e3 * (done.front() - c0));
            p.lastRowMs.add(1e3 * (done.back() - c0));
        }
        p.cold.push_back(std::move(rows));
        double sat = 0.0;
        if (j.search) {
            std::uint64_t sims = call("search", id, [&] {
                sat = hirise::sim::saturationLoadSpeculative(
                    j.family.spec, j.family.cfg, j.family.make, 0.0, 1.0,
                    kSearchIters, kSearchDepth, copt);
            });
            ++p.searches;
            p.searchSims += sims;
            p.requested += sims;
        }
        p.saturation.push_back(sat);
    }
    // The sampled sweeps are resubmitted in rounds, each as two warm
    // jobs of 128 rows (one per repetition of the designs). The first
    // round reads the results from memory right after the cold sweeps,
    // which other tenants of a shared host load (its time moved by
    // +-20% between identical runs), and is not timed; its rows are
    // the ones checked. A warm job runs on this thread alone, so the
    // process clock, exact while the workers sleep, times it: reading
    // the workers' clocks takes their CPUs' run-queue locks and made
    // these ~0.1 ms readings swing with the host's steal.
    std::vector<std::size_t> sampled;
    for (std::size_t id = 0; id < jobs.size(); ++id) {
        if (jobs[id].sampled)
            sampled.push_back(id);
    }
    const std::size_t half = sampled.size() / 2;
    p.warm.resize(jobs.size());
    std::vector<SimResult> again;
    for (int round = 0; round <= kWarmRounds; ++round) {
        for (std::size_t from : {std::size_t(0), half}) {
            const double c0 = processCpuSeconds();
            for (std::size_t i = from; i < from + half; ++i) {
                again.clear();
                shards(sampled[i], "warm",
                       round == 0 ? p.warm[sampled[i]] : again, nullptr);
            }
            if (round > 0)
                p.warmMs.add(1e3 * (processCpuSeconds() - c0));
        }
    }
    p.cpuSec = cpu.now() - cpu0;
    return p;
}

/** A pass's sweeps replayed on the campaign path (see points.hh):
 *  per job, its cold rows and its warm resubmit's rows. */
struct Replay
{
    double wallSec = 0.0;
    std::vector<std::vector<SimResult>> cold, warm;
};

Replay
replayPass(const std::vector<Job> &jobs, Replayer &rep)
{
    Replay r;
    auto start = Clock::now();
    auto sweep = [&](std::size_t id) {
        std::vector<SimResult> rows;
        for (const auto &sh : jobs[id].shards) {
            auto got = rep.evalPoints(jobs[id].family, sh, id);
            rows.insert(rows.end(), got.begin(), got.end());
        }
        return rows;
    };
    for (std::size_t id = 0; id < jobs.size(); ++id)
        r.cold.push_back(sweep(id));
    for (std::size_t id = 0; id < jobs.size(); ++id) {
        r.warm.push_back(jobs[id].sampled ? sweep(id)
                                          : std::vector<SimResult>{});
    }
    r.wallSec = secondsSince(start);
    return r;
}

/** Every row of @p got must equal the campaign pass's bit for bit. */
void
checkReplay(Checker &check, const std::vector<Job> &jobs, const Replay &got,
            const Pass &want, const char *what)
{
    for (std::size_t id = 0; id < jobs.size(); ++id) {
        for (std::size_t i = 0; i < want.cold[id].size(); ++i) {
            check.same(std::string(what) + " " + jobs[id].family.label,
                       resultBytes(got.cold[id][i]),
                       resultBytes(want.cold[id][i]));
        }
        for (std::size_t i = 0; i < got.warm[id].size(); ++i) {
            check.same(std::string(what) + " warm " + jobs[id].family.label,
                       resultBytes(got.warm[id][i]),
                       resultBytes(want.warm[id][i]));
        }
    }
}

std::string
satBytes(const std::vector<double> &sat)
{
    std::string out;
    for (double v : sat)
        putBytes(out, v);
    return out;
}

/** Bit-exact comparison of two passes' outputs. */
void
checkPass(Checker &check, const std::vector<Job> &jobs, const Pass &got,
          const Pass &want, const char *what)
{
    for (std::size_t id = 0; id < jobs.size(); ++id) {
        for (std::size_t i = 0; i < got.cold[id].size(); ++i) {
            check.same(std::string(what) + " " + jobs[id].family.label,
                       resultBytes(got.cold[id][i]),
                       resultBytes(want.cold[id][i]));
        }
    }
    check.same(std::string(what) + " saturation", satBytes(got.saturation),
               satBytes(want.saturation));
}

/** Warm resubmits must return their cold originals bit for bit. */
void
checkWarm(Checker &check, const std::vector<Job> &jobs, const Pass &p)
{
    for (std::size_t id = 0; id < jobs.size(); ++id) {
        for (std::size_t i = 0; i < p.warm[id].size(); ++i) {
            check.same("warm resubmit " + jobs[id].family.label,
                       resultBytes(p.warm[id][i]),
                       resultBytes(p.cold[id][i % p.cold[id].size()]));
        }
    }
}

/** Each picked point (job, row) of @p p must equal a direct scalar
 *  NetworkSim::run bit for bit. */
void
checkDirect(Checker &check, const std::vector<Job> &jobs, const Pass &p,
            const std::vector<std::pair<std::size_t, std::size_t>> &picks,
            ThreadPool &pool)
{
    std::vector<std::string> direct(picks.size());
    parallelFor(pool, picks.size(), [&](std::size_t k) {
        auto [id, i] = picks[k];
        const Job &j = jobs[id];
        direct[k] = resultBytes(directRun(
            j.family, j.shards[i / kShardPoints][i % kShardPoints]));
    });
    for (std::size_t k = 0; k < picks.size(); ++k) {
        auto [id, i] = picks[k];
        check.same("direct scalar " + jobs[id].family.label,
                   resultBytes(p.cold[id][i]), direct[k]);
    }
}

/** A seeded sample of 8 of the pass's points. */
std::vector<std::pair<std::size_t, std::size_t>>
samplePoints(const std::vector<Job> &jobs, const Pass &p, std::uint64_t seed)
{
    constexpr std::size_t kSample = 8;
    hirise::Rng rng(hirise::shardSeed(seed, 0xc0ffee));
    std::vector<std::pair<std::size_t, std::size_t>> picks;
    for (std::size_t k = 0; k < kSample; ++k) {
        std::size_t id = rng.below(jobs.size());
        while (p.cold[id].empty()) // a search-only job
            id = rng.below(jobs.size());
        picks.emplace_back(id, rng.below(p.cold[id].size()));
    }
    return picks;
}

} // namespace

Outcome
paperSweep(const RunOptions &opt, Checker &check, Tracer &tracer)
{
    Outcome out;
    // Set-up: pool + cache + grid construction, CPU seconds of the
    // constructing thread, median of repeats. (The new workers' own
    // start-up runs whenever they are scheduled; counting it made the
    // figure depend on the host's load.)
    const CpuClock self = CpuClock::callingThread();
    Samples setup = repeatTimed(101, [&] {
        const double c0 = self.now();
        auto pool = std::make_unique<ThreadPool>(opt.poolThreads);
        auto cache = std::make_unique<SimCache>();
        std::vector<Job> jobs = makeJobs(opt.seed);
        return self.now() - c0; // teardown stays outside
    });

    ThreadPool pool(opt.poolThreads);
    const CpuClock cpu = CpuClock::ownThreads();
    const std::vector<Job> jobs = makeJobs(opt.seed);
    {
        // Warm-up: fault in code and allocator arenas.
        SimCache warm;
        CampaignOptions copt{&pool, &warm};
        hirise::sim::runPointsCached(jobs[0].family.spec,
                                     jobs[0].family.cfg,
                                     jobs[0].family.make,
                                     jobs[0].shards[0], copt);
    }

    if (!opt.trace) {
        // Each pass is checked between passes, outside its timing, and
        // only the first is kept, so memory does not grow with passes.
        Samples cpuSec, rate, first;
        Latency last, warm;
        Pass ref;
        auto start = Clock::now();
        for (std::size_t n = 0; morePasses(start, opt.seconds, n, 1); ++n) {
            Pass p = runPass(jobs, pool, cpu, nullptr);
            cpuSec.add(p.cpuSec);
            rate.add(p.portCycles / p.cpuSec);
            first.append(p.firstRowMs);
            last.addPass(p.lastRowMs);
            warm.addPass(p.warmMs);
            out.attempted += p.requested;
            checkWarm(check, jobs, p);
            if (n == 0)
                ref = std::move(p);
            else
                checkPass(check, jobs, p, ref, "pass rerun");
            // Hand freed heap back between passes: which worker's malloc
            // arena a pass's large batched runs land in is scheduling
            // luck, and retained arenas would make peak RSS swing by a
            // fifth between identical runs.
            malloc_trim(0);
        }
        checkDirect(check, jobs, ref, samplePoints(jobs, ref, opt.seed),
                    pool);

        reportEndToEnd(out.report, setup, cpuSec, rate, selfPeakRssMb(), "max",
                       first, last, warm);
        return out;
    }

    // Traced run: the campaign pass with one span per call, then its
    // sweeps replayed on the campaign path untraced and traced. Every
    // point of the pass must equal a direct scalar NetworkSim::run, and
    // both replays and every warm resubmit must equal the pass, bit for
    // bit; every speculative search must equal the serial bisection.
    auto wl0 = Clock::now();
    Pass a = runPass(jobs, pool, cpu, &tracer);
    out.attempted += a.requested;
    checkWarm(check, jobs, a);

    Replayer plain(pool, nullptr);
    Replay pr = replayPass(jobs, plain);
    Replayer traced(pool, &tracer);
    Replay tr = replayPass(jobs, traced);
    tracer.add("paper_sweep", "workload", 0, wl0, Clock::now());

    checkReplay(check, jobs, pr, a, "untraced replay vs campaign");
    checkReplay(check, jobs, tr, a, "traced replay vs campaign");
    out.attempted += plain.stats().points + traced.stats().points;
    std::vector<std::pair<std::size_t, std::size_t>> every;
    for (std::size_t id = 0; id < jobs.size(); ++id) {
        for (std::size_t i = 0; i < a.cold[id].size(); ++i)
            every.emplace_back(id, i);
    }
    checkDirect(check, jobs, a, every, pool);
    out.attempted += every.size();
    for (std::size_t id = 0; id < jobs.size(); ++id) {
        if (!jobs[id].search)
            continue;
        const Family &f = jobs[id].family;
        double serial = hirise::sim::saturationLoad(f.spec, f.cfg, f.make,
                                                    0.0, 1.0, kSearchIters);
        check.same("speculative vs serial search " + f.label,
                   satBytes({a.saturation[id]}), satBytes({serial}));
        ++out.attempted;
    }

    std::map<std::string, double> m;
    m["sweep.busy_s"] = a.busySec;
    m["sweep.points_per_s"] = double(a.simulated) / a.busySec;
    m["sweep.search_sims"] = double(a.searchSims) / double(a.searches);
    m["sweep.search_useful_frac"] =
        double(kSearchIters) * double(a.searches) / double(a.searchSims);
    pointLayerMetrics(plain.stats(), traced.stats(), opt.poolThreads + 1,
                      m);
    m["trace.overhead_s"] = tr.wallSec - pr.wallSec;
    m["trace.spans"] = double(tracer.size());
    reportLayers(out.report, m);
    return out;
}

} // namespace perfbench
