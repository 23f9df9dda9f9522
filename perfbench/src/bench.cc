#include "bench.hh"

#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>

namespace perfbench {

namespace {

double
readClock(clockid_t id)
{
    timespec ts{};
    if (clock_gettime(id, &ts) != 0)
        return 0.0;
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/** The clock of thread @p tid of this process (the kernel's encoding,
 *  as glibc's pthread_getcpuclockid builds it: CPUCLOCK_SCHED with
 *  the per-thread bit). */
clockid_t
threadClock(pid_t tid)
{
    return clockid_t((~unsigned(tid) << 3) | 6u);
}

} // namespace

CpuClock
CpuClock::ownThreads()
{
    CpuClock c;
    if (DIR *d = opendir("/proc/self/task")) {
        while (dirent *e = readdir(d)) {
            if (e->d_name[0] != '.')
                c.ids_.push_back(threadClock(pid_t(std::atoi(e->d_name))));
        }
        closedir(d);
    }
    return c;
}

CpuClock
CpuClock::callingThread()
{
    CpuClock c;
    c.ids_.push_back(CLOCK_THREAD_CPUTIME_ID);
    return c;
}

CpuClock
CpuClock::process(pid_t pid)
{
    CpuClock c;
    clockid_t id;
    if (clock_getcpuclockid(pid, &id) == 0)
        c.ids_.push_back(id);
    return c;
}

double
CpuClock::now() const
{
    double s = 0.0;
    for (clockid_t id : ids_)
        s += readClock(id);
    return s;
}

double
processCpuSeconds()
{
    return readClock(CLOCK_PROCESS_CPUTIME_ID);
}

double
Samples::sum() const
{
    double s = 0.0;
    for (double v : v_)
        s += v;
    return s;
}

double
Samples::quantile(double q) const
{
    if (v_.empty())
        return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    double pos = q * double(s.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (pos - double(lo)) * (s[hi] - s[lo]);
}

void
Latency::addPass(const Samples &pass)
{
    if (pass.empty())
        return;
    pooled_.append(pass);
    passP90_.add(pass.quantile(0.9));
}

void
Report::set(const std::string &name, double value,
            const std::string &unit, const std::string &note)
{
    entries_.push_back({name, value, unit, note});
}

void
Report::median(const std::string &name, const Samples &s,
               const std::string &unit, double scale)
{
    entries_.push_back({name, s.median() * scale, unit,
                        "p50 n=" + std::to_string(s.size())});
}

void
Report::tail(const std::string &name, const Latency &l,
             const std::string &unit)
{
    entries_.push_back({name, l.passP90().median(), unit,
                        "p90 per pass, median of " +
                            std::to_string(l.passP90().size()) +
                            " passes, n=" +
                            std::to_string(l.pooled().size())});
}

void
Report::print(std::FILE *out) const
{
    for (const Entry &e : entries_) {
        std::fprintf(out, "metric %-36s %16.6g %-6s %s\n",
                     e.name.c_str(), e.value, e.unit.c_str(),
                     e.stat.c_str());
    }
}

std::string
Report::json(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const
{
    char buf[64];
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        double v = std::isfinite(e.value) ? e.value : 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        if (i)
            out += ", ";
        out += "\"" + e.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + e.unit + "\"}";
    }
    out += "}}";
    return out;
}

bool
Checker::same(std::string_view what, std::string got,
              std::string_view want)
{
    std::lock_guard<std::mutex> lk(mu_);
    ++checks_;
    if (inject_ && !got.empty()) {
        got[got.size() / 2] ^= 0x01;
        inject_ = false;
    }
    if (got == want)
        return true;
    ++failures_;
    std::fprintf(stderr, "check failed: %.*s\n", int(what.size()),
                 what.data());
    return false;
}

void
Checker::fail(std::string_view what)
{
    std::lock_guard<std::mutex> lk(mu_);
    ++checks_;
    ++failures_;
    std::fprintf(stderr, "operation failed: %.*s\n", int(what.size()),
                 what.data());
}

std::string
resultBytes(const hirise::sim::SimResult &r)
{
    std::string out;
    putBytes(out, r.offeredFlitsPerCycle);
    putBytes(out, r.acceptedFlitsPerCycle);
    putBytes(out, r.avgLatencyCycles);
    putBytes(out, r.p99LatencyCycles);
    putBytes(out, r.avgQueueingCycles);
    putBytes(out, r.packetsDelivered);
    putBytes(out, r.inFlightAtMeasureEnd);
    putBytes(out, r.latencyOverflowPackets);
    putBytes(out, r.packetsDropped);
    putBytes(out, r.perInputLatency.size());
    for (double v : r.perInputLatency)
        putBytes(out, v);
    putBytes(out, r.perInputThroughput.size());
    for (double v : r.perInputThroughput)
        putBytes(out, v);
    putBytes(out, r.fairness);
    return out;
}

std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

void
Tracer::add(std::string name, std::string cat, std::uint64_t id,
            Clock::time_point start, Clock::time_point end,
            std::vector<std::pair<std::string, double>> args)
{
    Span s;
    s.name = std::move(name);
    s.cat = std::move(cat);
    s.id = id;
    s.tid = threadIndex();
    s.startUs = usSinceStart(start);
    s.durUs = std::chrono::duration<double, std::micro>(end - start)
                  .count();
    s.args = std::move(args);
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lk(mu_);
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu",
                     s.name.c_str(), s.cat.c_str(), s.tid, s.startUs,
                     s.durUs, static_cast<unsigned long long>(s.id));
        for (const auto &[k, v] : s.args)
            std::fprintf(f, ",\"%s\":%.17g", k.c_str(), v);
        std::fprintf(f, "}}%s\n", i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local std::uint32_t mine = next.fetch_add(1);
    return mine;
}

double
selfPeakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

void
parallelFor(hirise::ThreadPool &pool, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    std::vector<std::future<void>> futs;
    futs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        futs.push_back(pool.submit([&fn, i] { fn(i); }));
    for (auto &f : futs)
        hirise::waitHelping(pool, f);
}

Samples
repeatTimed(int reps, const std::function<double()> &fn)
{
    Samples s;
    for (int i = 0; i < reps; ++i)
        s.add(fn());
    return s;
}

void
reportEndToEnd(Report &rep, const Samples &setup, const Samples &pass,
               const Samples &rate, double peak_rss_mb,
               const std::string &rss_note, const Samples &first_row,
               const Latency &cold_job, const Latency &warm_job)
{
    rep.median("setup_s", setup, "s");
    rep.median("cpu_s", pass, "s");
    rep.median("port_cycles_per_cpu_s", rate, "1/s");
    rep.set("peak_rss_mb", peak_rss_mb, "MiB", rss_note);
    rep.median("cold_first_row_cpu_ms", first_row, "ms");
    rep.median("cold_job_cpu_ms", cold_job.pooled(), "ms");
    rep.tail("cold_job_tail_cpu_ms", cold_job, "ms");
    rep.median("warm_job_cpu_ms", warm_job.pooled(), "ms");
    rep.tail("warm_job_tail_cpu_ms", warm_job, "ms");
}

namespace {

struct LayerMetric
{
    const char *name;
    const char *unit;
};

// Order and units of the per-layer metrics; BENCHMARK.json lists the
// same names.
const LayerMetric kLayerMetrics[] = {
    {"sweep.busy_s", "s"},
    {"sweep.points_per_s", "1/s"},
    {"sweep.parallel_eff", "ratio"},
    {"sweep.search_sims", "count"},
    {"sweep.search_useful_frac", "ratio"},
    {"network_sim.low.port_cycles_per_s", "1/s"},
    {"network_sim.mid.port_cycles_per_s", "1/s"},
    {"network_sim.sat.port_cycles_per_s", "1/s"},
    {"network_sim.point_p50_ms", "ms"},
    {"network_sim.point_tail_ms", "ms"},
    {"network_sim.self_frac", "ratio"},
    {"fabric.hirise64.ns_per_call", "ns"},
    {"fabric.flat64.ns_per_call", "ns"},
    {"fabric.flat256.ns_per_call", "ns"},
    {"fabric.calls_per_point", "count"},
    {"fabric.share", "ratio"},
    {"sim_cache.hit_ratio", "ratio"},
    {"sim_cache.lookup_ns", "ns"},
    {"sim_cache.store_ns", "ns"},
    {"svc.parse_us", "us"},
    {"svc.row_ns", "ns"},
    {"svc.frame_ns", "ns"},
    {"svc.ack_ms", "ms"},
    {"svc.stream_rows_per_s", "1/s"},
    {"cmp.instr_per_s", "1/s"},
    {"cmp.transport_share", "ratio"},
    {"cmp.switch_step_ns", "ns"},
    {"noc.mesh.port_cycles_per_s", "1/s"},
    {"noc.mesh.step_us", "us"},
    {"noc.graph.port_cycles_per_s", "1/s"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

} // namespace

void
reportLayers(Report &rep, const std::map<std::string, double> &got)
{
    for (const LayerMetric &m : kLayerMetrics) {
        auto it = got.find(m.name);
        if (it != got.end())
            rep.set(m.name, it->second, m.unit);
        else
            rep.set(m.name, 0.0, m.unit, "not on this workload's path");
    }
}

} // namespace perfbench
