/**
 * @file
 * cmp_noc: the closed-loop engines behind Table VI and section VI-E.
 * A pass runs, as jobs of systems simulated in parallel:
 *  - per pair of Table VI mixes, the 64-core system on the 2D switch,
 *    on Hi-Rise (4-channel CLRG) and on a flattened butterfly (the
 *    harness's table6 + discussionSpeedup work),
 *  - the GraphNoc low-radix mesh vs flattened butterfly comparison,
 *  - the kilo-core 4x4 MeshNoc of Hi-Rise vs flat routers at two
 *    rates (kiloCore),
 * then resubmits three earlier jobs. Only the mix jobs, which are
 * alike in cost, form the job-latency population. Nothing here goes
 * through SimCache or the campaign layer, so a resubmit costs a full
 * rerun and must reproduce its original bit for bit.
 */

#include <malloc.h>

// mesh.hh first: noc::Topology (topology.hh) would otherwise shadow
// hirise::Topology inside mesh.hh's inline members.
#include "noc/mesh.hh"

#include "cmp/graph_transport.hh"
#include "cmp/msg_switch.hh"
#include "cmp/system.hh"
#include "common/random.hh"
#include "harness/experiments.hh"
#include "noc/graph_noc.hh"
#include "phys/model.hh"
#include "workloads.hh"
#include "wrappers.hh"

namespace perfbench {

namespace {

using hirise::ArbScheme;
using hirise::SwitchSpec;
using hirise::ThreadPool;
namespace cmp = hirise::cmp;
namespace noc = hirise::noc;

/** Kilo-core offered loads, packets/node/ns (kiloCore spans
 *  0.005-0.055). */
constexpr double kMeshLoadsPns[] = {0.015, 0.035};

/** FNV-1a digest of the first pass's outputs under --seed 1; a
 *  change means the closed-loop engines no longer reproduce their
 *  published behaviour. */
constexpr std::uint64_t kSeed1Digest = 0x6d85de6d19397ca9ull;

/** One simulation of a job: a CMP system or an open-loop NoC run. */
struct Unit
{
    enum Kind { Central, Butterfly, Mesh, Graph } kind;
    std::string label;
    SwitchSpec spec;     //!< central switch / mesh router
    double freqGhz = 2.0;
    std::size_t mix = 0; //!< Central/Butterfly
    std::shared_ptr<noc::Topology> topo; //!< Graph
    double rate = 0.0;   //!< Mesh/Graph, packets/node/cycle
    std::uint64_t seed = 1;
};

struct Job
{
    std::string label;
    std::vector<Unit> units;
    bool sampled = false; //!< in the job-latency population
};

std::vector<Job>
makeJobs(std::uint64_t seed)
{
    using namespace hirise::harness;
    hirise::phys::PhysModel model;
    const SwitchSpec s2d = spec2d();
    const SwitchSpec shr = specHiRise(4, ArbScheme::Clrg);
    const double f2d = model.evaluate(s2d).freqGhz;
    const double fhr = model.evaluate(shr).freqGhz;

    std::vector<Job> jobs;
    std::uint64_t n = 0;
    auto next = [&] { return hirise::shardSeed(seed, n++); };
    // Mix jobs pair a light and a heavy Table VI mix (1+8, 2+7, ...),
    // so the sampled jobs are alike in cost and their latency median
    // does not jump between mixes.
    const auto &mixes = cmp::paperMixes();
    for (std::size_t p = 0; p < mixes.size() / 2; ++p) {
        Job j{std::string("mixes ") + mixes[p].name + "+" +
                  mixes[mixes.size() - 1 - p].name,
              {}, true};
        for (std::size_t m : {p, mixes.size() - 1 - p}) {
            j.units.push_back({Unit::Central, "2d", s2d, f2d, m, nullptr,
                               0.0, next()});
            j.units.push_back({Unit::Central, "hirise", shr, fhr, m,
                               nullptr, 0.0, next()});
            j.units.push_back({Unit::Butterfly, "fb", {}, 2.0, m,
                               nullptr, 0.0, next()});
        }
        jobs.push_back(std::move(j));
    }
    {
        Job j{"graph", {}, false};
        j.units.push_back({Unit::Graph, "mesh8x8", {}, 2.0, 0,
                           std::make_shared<noc::LowRadixMesh>(8, 1, 1.0),
                           0.02, next()});
        j.units.push_back(
            {Unit::Graph, "fb4x4", {}, 2.0, 0,
             std::make_shared<noc::FlattenedButterfly>(4, 4, 4, 2.0),
             0.02, next()});
        jobs.push_back(std::move(j));
    }
    SwitchSpec hr_router = shr;
    SwitchSpec flat_router = spec2d(52); // 48 local + 4 mesh ports
    double fm_hr = model.evaluate(hr_router).freqGhz;
    double fm_flat = model.evaluate(flat_router).freqGhz;
    for (double pns : kMeshLoadsPns) {
        Job j{"kilocore " + std::to_string(pns), {}, false};
        j.units.push_back({Unit::Mesh, "hirise-mesh", hr_router, fm_hr,
                           0, nullptr, pns / fm_hr, next()});
        j.units.push_back({Unit::Mesh, "flat-mesh", flat_router,
                           fm_flat, 0, nullptr, pns / fm_flat, next()});
        jobs.push_back(std::move(j));
    }
    return jobs;
}

noc::MeshConfig
meshConfig(const Unit &u)
{
    noc::MeshConfig mc;
    mc.width = 4;
    mc.height = 4;
    mc.router = u.spec;
    mc.seed = u.seed;
    return mc;
}

cmp::SystemConfig
systemConfig(const Unit &u)
{
    cmp::SystemConfig cfg;
    cfg.switchFreqGhz = u.freqGhz;
    cfg.seed = u.seed;
    return cfg;
}

/** Transport steps CmpSystem::run takes: its own clock-crossing loop
 *  replayed without the work. */
std::uint64_t
transportSteps(double core_ghz, double switch_ghz, std::uint64_t cycles)
{
    double core_ps = 1000.0 / core_ghz, switch_ps = 1000.0 / switch_ghz;
    double t_core = 0.0, t_switch = 0.0;
    std::uint64_t c = 0, steps = 0;
    while (c < cycles) {
        if (t_core <= t_switch) {
            ++c;
            t_core += core_ps;
        } else {
            ++steps;
            t_switch += switch_ps;
        }
    }
    return steps;
}

/** Layer counters of one unit (traced run). */
struct UnitStats
{
    double sec = 0.0;
    double portCycles = 0.0;
    double instructions = 0.0;
    CallStats step, send;
};

/** Run one unit; its output bytes, simulated port-cycles, stats. */
std::string
runUnit(const Unit &u, bool traced, double *port_cycles, UnitStats *st)
{
    std::string out;
    auto t0 = Clock::now();
    switch (u.kind) {
    case Unit::Central:
    case Unit::Butterfly: {
        cmp::SystemConfig cfg = systemConfig(u);
        auto per_core = cmp::assignMix(cmp::paperMixes()[u.mix],
                                       cfg.numTiles);
        ForwardingTransport *wrap = nullptr;
        std::unique_ptr<cmp::CmpSystem> sys;
        std::uint64_t ports;
        if (u.kind == Unit::Butterfly) {
            auto topo =
                std::make_shared<noc::FlattenedButterfly>(4, 4, 4, 2.0);
            ports = std::uint64_t(topo->numRouters()) * topo->radix();
            sys = std::make_unique<cmp::CmpSystem>(
                [&](cmp::Transport::DeliverFn d) {
                    return std::make_unique<cmp::GraphTransport>(
                        topo, std::move(d), 4, u.seed);
                },
                cfg, std::move(per_core));
        } else if (traced) {
            ports = u.spec.radix;
            sys = std::make_unique<cmp::CmpSystem>(
                [&](cmp::Transport::DeliverFn d) {
                    auto w = std::make_unique<ForwardingTransport>(
                        std::make_unique<cmp::MsgSwitch>(
                            u.spec, cfg.switchVcs, std::move(d)));
                    wrap = w.get();
                    return w;
                },
                cfg, std::move(per_core));
        } else {
            ports = u.spec.radix;
            sys = std::make_unique<cmp::CmpSystem>(u.spec, cfg,
                                                   std::move(per_core));
        }
        cmp::SystemResult r =
            sys->run(kCmpLength.warmup, kCmpLength.measure);
        *port_cycles =
            double(ports) * double(transportSteps(
                                cfg.coreFreqGhz, cfg.switchFreqGhz,
                                kCmpLength.total()));
        putBytes(out, r.totalIpc);
        putBytes(out, r.avgMissLatencyNs);
        putBytes(out, r.networkMessages);
        for (const auto &c : r.cores) {
            putBytes(out, c.retired);
            putBytes(out, c.misses);
            putBytes(out, c.stallCycles);
        }
        st->instructions = r.totalIpc * double(kCmpLength.measure);
        if (wrap) {
            st->step = wrap->stepStats();
            st->send = wrap->sendStats();
        }
        break;
    }
    case Unit::Mesh: {
        noc::MeshNoc mesh(meshConfig(u));
        noc::MeshResult r =
            mesh.run(u.rate, kMeshLength.warmup, kMeshLength.measure);
        *port_cycles = double(mesh.numRouters()) * u.spec.radix *
                       double(kMeshLength.total());
        putBytes(out, r.offeredPktsPerCycle);
        putBytes(out, r.acceptedPktsPerCycle);
        putBytes(out, r.avgLatencyCycles);
        putBytes(out, r.avgHops);
        putBytes(out, r.delivered);
        break;
    }
    case Unit::Graph: {
        noc::GraphNoc g(u.topo, 4, 4, u.seed);
        noc::GraphResult r =
            g.run(u.rate, kGraphLength.warmup, kGraphLength.measure);
        *port_cycles = double(u.topo->numRouters()) * u.topo->radix() *
                       double(kGraphLength.total());
        putBytes(out, r.offeredPktsPerCycle);
        putBytes(out, r.acceptedPktsPerCycle);
        putBytes(out, r.avgLatencyCycles);
        putBytes(out, r.avgRouterHops);
        putBytes(out, r.avgLinkMm);
        putBytes(out, r.delivered);
        break;
    }
    }
    st->sec = secondsSince(t0);
    st->portCycles = *port_cycles;
    return out;
}

struct JobRun
{
    std::vector<std::string> outputs; //!< per unit
    std::vector<UnitStats> stats;
    double firstMs = 0.0, lastMs = 0.0, portCycles = 0.0;
};

/** Run a job's units in parallel; rows are the units' completions.
 *  The job is timed in CPU ms of the whole process. The first row is
 *  timed as the CPU of the job's cheapest unit alone, on its own
 *  thread: what all threads had used when the first unit finished
 *  depended on which units the pool happened to start first (spread
 *  0.17 over ten runs, against 0.10 for the whole job). */
JobRun
runJob(const Job &job, std::uint64_t id, ThreadPool &pool,
       const CpuClock &cpu, Tracer *tracer)
{
    JobRun jr;
    const std::size_t n = job.units.size();
    jr.outputs.resize(n);
    jr.stats.resize(n);
    std::vector<double> pc(n, 0.0), unitCpu(n, 0.0);
    auto t0 = Clock::now();
    const double c0 = cpu.now();
    parallelFor(pool, n, [&](std::size_t k) {
        const Unit &u = job.units[k];
        auto u0 = Clock::now();
        const CpuClock self = CpuClock::callingThread();
        const double s0 = self.now();
        jr.outputs[k] = runUnit(u, tracer != nullptr, &pc[k], &jr.stats[k]);
        unitCpu[k] = self.now() - s0;
        if (tracer) {
            const UnitStats &s = jr.stats[k];
            tracer->add(u.label, "system", id, u0, Clock::now(),
                        {{"port_cycles", pc[k]},
                         {"transport_steps", double(s.step.calls)},
                         {"transport_ns", double(s.step.ns + s.send.ns)}});
        }
    });
    jr.firstMs = 1e3 * *std::min_element(unitCpu.begin(), unitCpu.end());
    jr.lastMs = 1e3 * (cpu.now() - c0);
    for (double v : pc)
        jr.portCycles += v;
    if (tracer)
        tracer->add(job.label, "job", id, t0, Clock::now());
    return jr;
}

struct Pass
{
    double wallSec = 0.0, cpuSec = 0.0, portCycles = 0.0;
    Samples firstMs, lastMs, warmMs; //!< CPU ms
    std::vector<JobRun> cold;
    std::vector<std::pair<std::size_t, JobRun>> warm;
};

Pass
runPass(const std::vector<Job> &jobs, std::size_t pass_no, ThreadPool &pool,
        const CpuClock &cpu, Tracer *tracer)
{
    Pass p;
    auto start = Clock::now();
    const double cpu0 = cpu.now();
    for (std::size_t id = 0; id < jobs.size(); ++id) {
        JobRun jr = runJob(jobs[id], id, pool, cpu, tracer);
        if (jobs[id].sampled) {
            p.firstMs.add(jr.firstMs);
            p.lastMs.add(jr.lastMs);
        }
        p.portCycles += jr.portCycles;
        p.cold.push_back(std::move(jr));
    }
    // Resubmit two mix jobs and one NoC job, rotating per pass.
    const std::size_t pairs = cmp::paperMixes().size() / 2;
    for (std::size_t id : {pass_no % pairs, (pass_no + pairs / 2) % pairs,
                           pairs + pass_no % (jobs.size() - pairs)}) {
        JobRun jr = runJob(jobs[id], id, pool, cpu, tracer);
        if (jobs[id].sampled)
            p.warmMs.add(jr.lastMs);
        p.portCycles += jr.portCycles;
        p.warm.emplace_back(id, std::move(jr));
    }
    p.wallSec = secondsSince(start);
    p.cpuSec = cpu.now() - cpu0;
    return p;
}

std::uint64_t
digest(const Pass &p)
{
    std::uint64_t h = fnv1a("");
    for (const JobRun &jr : p.cold) {
        for (const std::string &o : jr.outputs)
            h = fnv1a(o, h);
    }
    return h;
}

void
checkPasses(Checker &check, const std::vector<Job> &jobs,
            const Pass &got, const Pass &ref, const char *what)
{
    for (std::size_t id = 0; id < jobs.size(); ++id) {
        for (std::size_t k = 0; k < jobs[id].units.size(); ++k) {
            check.same(std::string(what) + " " + jobs[id].label + " " +
                           jobs[id].units[k].label,
                       got.cold[id].outputs[k], ref.cold[id].outputs[k]);
        }
    }
}

/** Resubmits must reproduce their originals (run-twice determinism). */
void
checkWarm(Checker &check, const std::vector<Job> &jobs, const Pass &p,
          const Pass &ref)
{
    for (const auto &[id, jr] : p.warm) {
        for (std::size_t k = 0; k < jr.outputs.size(); ++k) {
            check.same("resubmit " + jobs[id].label + " " +
                           jobs[id].units[k].label,
                       jr.outputs[k], ref.cold[id].outputs[k]);
        }
    }
}

std::uint64_t
unitsIn(const Pass &p)
{
    std::uint64_t n = 0;
    for (const JobRun &jr : p.cold)
        n += jr.outputs.size();
    for (const auto &w : p.warm)
        n += w.second.outputs.size();
    return n;
}

} // namespace

Outcome
cmpNoc(const RunOptions &opt, Checker &check, Tracer &tracer)
{
    Outcome out;
    const std::vector<Job> jobs = makeJobs(opt.seed);

    // Set-up: constructing every system and mesh a pass uses, in CPU
    // seconds, median of repeats. Each repeat starts from a trimmed
    // heap, so it faults in its memory as a cold start does; reusing
    // the previous repeat's freed chunks made the time depend on where
    // they happened to lie (a 2x spread within one run).
    Samples setup = repeatTimed(51, [&] {
        std::vector<std::unique_ptr<cmp::CmpSystem>> systems;
        std::vector<std::unique_ptr<noc::MeshNoc>> meshes;
        std::vector<std::unique_ptr<noc::GraphNoc>> graphs;
        malloc_trim(0);
        const double c0 = processCpuSeconds();
        for (const Job &j : jobs) {
            for (const Unit &u : j.units) {
                if (u.kind == Unit::Mesh) {
                    meshes.push_back(
                        std::make_unique<noc::MeshNoc>(meshConfig(u)));
                } else if (u.kind == Unit::Graph) {
                    graphs.push_back(std::make_unique<noc::GraphNoc>(
                        u.topo, 4, 4, u.seed));
                } else {
                    cmp::SystemConfig cfg = systemConfig(u);
                    auto per_core = cmp::assignMix(
                        cmp::paperMixes()[u.mix], cfg.numTiles);
                    if (u.kind == Unit::Central) {
                        systems.push_back(std::make_unique<cmp::CmpSystem>(
                            u.spec, cfg, std::move(per_core)));
                    } else {
                        auto topo = std::make_shared<
                            noc::FlattenedButterfly>(4, 4, 4, 2.0);
                        systems.push_back(std::make_unique<cmp::CmpSystem>(
                            [&](cmp::Transport::DeliverFn d) {
                                return std::make_unique<cmp::GraphTransport>(
                                    topo, std::move(d), 4, u.seed);
                            },
                            cfg, std::move(per_core)));
                    }
                }
            }
        }
        return processCpuSeconds() - c0; // destruction stays outside
    });

    ThreadPool pool(opt.poolThreads);
    const CpuClock cpu = CpuClock::ownThreads();
    {
        double pc = 0.0;
        UnitStats st;
        runUnit(jobs.back().units.front(), false, &pc, &st); // warm-up
    }

    if (!opt.trace) {
        // Each pass is checked between passes, outside its timing, and
        // only the first is kept, so memory does not grow with passes.
        Samples cpuSec, rate, first;
        Latency last, warm;
        Pass ref;
        auto start = Clock::now();
        for (std::size_t n = 0; morePasses(start, opt.seconds, n, 1); ++n) {
            Pass p = runPass(jobs, n, pool, cpu, nullptr);
            cpuSec.add(p.cpuSec);
            rate.add(p.portCycles / p.cpuSec);
            first.append(p.firstMs);
            last.addPass(p.lastMs);
            warm.addPass(p.warmMs);
            out.attempted += unitsIn(p);
            if (n == 0) {
                ref = std::move(p);
                checkWarm(check, jobs, ref, ref);
            } else {
                checkWarm(check, jobs, p, ref);
                checkPasses(check, jobs, p, ref, "pass rerun");
            }
        }
        std::uint64_t d = digest(ref);
        std::fprintf(stdout, "digest cmp_noc seed=%llu %#018llx\n",
                     static_cast<unsigned long long>(opt.seed),
                     static_cast<unsigned long long>(d));
        if (opt.seed == 1) {
            std::string got, want;
            putBytes(got, d);
            putBytes(want, kSeed1Digest);
            check.same("recorded seed-1 digest", got, want);
        }

        reportEndToEnd(out.report, setup, cpuSec, rate, selfPeakRssMb(),
                       "max", first, last, warm);
        return out;
    }

    // Traced run: an untraced pass, then the same pass with the
    // MsgSwitch transports wrapped and one span per system run.
    auto wl0 = Clock::now();
    Pass plain = runPass(jobs, 0, pool, cpu, nullptr);
    Pass traced = runPass(jobs, 0, pool, cpu, &tracer);
    tracer.add("cmp_noc", "workload", 0, wl0, Clock::now());
    out.attempted += unitsIn(plain) + unitsIn(traced);
    checkPasses(check, jobs, traced, plain, "traced vs untraced");
    checkWarm(check, jobs, traced, plain);

    double cmp_sec = 0.0, instr = 0.0, transport_ns = 0.0;
    double steps = 0.0, step_ns = 0.0;
    double mesh_sec = 0.0, mesh_pc = 0.0, mesh_cycles = 0.0;
    double graph_sec = 0.0, graph_pc = 0.0;
    for (std::size_t id = 0; id < jobs.size(); ++id) {
        for (std::size_t k = 0; k < jobs[id].units.size(); ++k) {
            const Unit &u = jobs[id].units[k];
            const UnitStats &s = traced.cold[id].stats[k];
            if (u.kind == Unit::Central) {
                cmp_sec += s.sec;
                instr += s.instructions;
                transport_ns += double(s.step.ns + s.send.ns);
                steps += double(s.step.calls);
                step_ns += double(s.step.ns);
            } else if (u.kind == Unit::Mesh) {
                mesh_sec += s.sec;
                mesh_cycles += double(kMeshLength.total());
                mesh_pc += s.portCycles;
            } else if (u.kind == Unit::Graph) {
                graph_sec += s.sec;
                graph_pc += s.portCycles;
            }
        }
    }
    std::map<std::string, double> m;
    m["cmp.instr_per_s"] = instr / cmp_sec;
    m["cmp.transport_share"] = transport_ns * 1e-9 / cmp_sec;
    m["cmp.switch_step_ns"] = step_ns / steps;
    m["noc.mesh.port_cycles_per_s"] = mesh_pc / mesh_sec;
    m["noc.mesh.step_us"] = 1e6 * mesh_sec / mesh_cycles;
    m["noc.graph.port_cycles_per_s"] = graph_pc / graph_sec;
    m["trace.overhead_s"] = traced.wallSec - plain.wallSec;
    m["trace.spans"] = double(tracer.size());
    reportLayers(out.report, m);
    return out;
}

} // namespace perfbench
