/**
 * @file
 * Shared machinery of the benchmark program: timing, sample statistics,
 * the result report, output checks, and the in-memory span recorder
 * of the traced run.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <sys/types.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.hh"
#include "sim/network_sim.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

/**
 * CPU time, in seconds, of the threads and processes that do a
 * workload's work: the clock every timed end-to-end metric reads.
 * Most of a shared host's noise stays out of it: the guest kernel accounts
 * hypervisor steal apart from a thread's run time, and time a thread
 * spends waiting for a CPU is not run time. On a 4-vCPU VM, three
 * competing busy threads slowed a pass's wall time by 25-50% and its
 * CPU time by 1-3%.
 *
 * A thread's clock reads exactly at any instant. A foreign process's
 * clock lags by the time each of its running threads has run since
 * the last scheduler tick (4 ms at HZ=250), so it is exact only while
 * the process is idle.
 */
class CpuClock
{
  public:
    /** Every thread this process has now; threads started later are
     *  not counted. */
    static CpuClock ownThreads();
    /** The calling thread alone. */
    static CpuClock callingThread();
    /** Every thread of process @p pid, exited ones included. */
    static CpuClock process(pid_t pid);
    /** Summed CPU seconds; a clock whose thread has exited reads 0. */
    double now() const;

  private:
    std::vector<clockid_t> ids_;
};

/** CPU seconds of this whole process, including its exited threads. */
double processCpuSeconds();

/** Options every workload receives from the command line. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Flip one byte of the first compared output (self-test hook
     *  proving that the output checks are live). */
    bool injectCorruption = false;
    /** Pool workers: nproc - 1, because the waiting thread helps. */
    unsigned poolThreads = 1;
    std::string servedBinary; //!< hirise_served (serve_mix)
    std::string workDir;      //!< scratch files and the trace JSON
};

/** A timing or count distribution. */
class Samples
{
  public:
    void add(double v) { v_.push_back(v); }
    void append(const Samples &o)
    {
        v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    }
    std::size_t size() const { return v_.size(); }
    bool empty() const { return v_.empty(); }
    double sum() const;
    /** Linear-interpolated quantile, q in [0, 1]; 0 when empty. */
    double quantile(double q) const;
    double median() const { return quantile(0.5); }

  private:
    std::vector<double> v_;
};

/**
 * Job latencies of a run, kept per pass. The median is taken over all
 * jobs; the tail is each pass's p90, median over passes. A p90 pooled
 * over the run swings with the few seconds a shared host stalls, while
 * the per-pass p90 of most passes does not.
 */
class Latency
{
  public:
    void addPass(const Samples &pass);
    const Samples &pooled() const { return pooled_; }
    const Samples &passP90() const { return passP90_; }

  private:
    Samples pooled_;
    Samples passP90_;
};

/** Ordered metrics of one run, printed by name with unit, statistic
 *  and sample count, then as the final JSON line. */
class Report
{
  public:
    /** A value that is not a distribution (a ratio, a count). */
    void set(const std::string &name, double value,
             const std::string &unit, const std::string &note = "");
    void median(const std::string &name, const Samples &s,
                const std::string &unit, double scale = 1.0);
    /** The tail of @p l: median over passes of each pass's p90. */
    void tail(const std::string &name, const Latency &l,
              const std::string &unit);
    void print(std::FILE *out) const;
    /** The single-line JSON object of the benchmark contract. */
    std::string json(bool correct, std::uint64_t attempted,
                     std::uint64_t failed) const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
        std::string stat;
    };
    std::vector<Entry> entries_;
};

/**
 * Output checks. Every comparison is of bytes, so a single flipped
 * byte is always detected; the corruption hook flips one byte of the
 * first compared output.
 */
class Checker
{
  public:
    explicit Checker(bool inject) : inject_(inject) {}
    /** Compare @p got against @p want; false (and a failure counted,
     *  with @p what logged to stderr) when they differ. */
    bool same(std::string_view what, std::string got,
              std::string_view want);
    /** Record a failed operation that is not a comparison. */
    void fail(std::string_view what);
    std::uint64_t checks() const { return checks_; }
    std::uint64_t failures() const { return failures_; }

  private:
    std::mutex mu_;
    bool inject_;
    std::uint64_t checks_ = 0;
    std::uint64_t failures_ = 0;
};

/** Every field of a SimResult as bytes (bit-exact comparison). */
std::string resultBytes(const hirise::sim::SimResult &r);

/** Append the object representation of a trivially copyable value. */
template <typename T>
void
putBytes(std::string &out, const T &v)
{
    char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    out.append(buf, sizeof(T));
}

std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/**
 * In-memory span recorder of the traced run. Spans nest workload ->
 * job (sweep call, campaign job, system run) -> point and carry the
 * id of the job they belong to; written as Chrome-trace JSON at exit.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::string cat;
        std::uint64_t id = 0;
        std::uint32_t tid = 0;
        double startUs = 0.0;
        double durUs = 0.0;
        std::vector<std::pair<std::string, double>> args;
    };

    Tracer() : t0_(Clock::now()) {}
    double usSinceStart(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - t0_)
            .count();
    }
    void add(std::string name, std::string cat, std::uint64_t id,
             Clock::time_point start, Clock::time_point end,
             std::vector<std::pair<std::string, double>> args = {});
    std::size_t size() const;
    /** Write the spans as a Chrome-trace JSON array; false on I/O
     *  failure. */
    bool write(const std::string &path) const;

  private:
    Clock::time_point t0_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Small dense id for the calling thread (trace "tid"). */
std::uint32_t threadIndex();

/** Peak resident set of this process, MiB. */
double selfPeakRssMb();

/** Run @p fn(i) for i in [0, n) on @p pool, the caller helping. */
void parallelFor(hirise::ThreadPool &pool, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/** Median of @p reps timings of @p fn (seconds). */
Samples repeatTimed(int reps, const std::function<double()> &fn);

/**
 * Report the end-to-end metrics in BENCHMARK.json's order: set-up CPU
 * seconds, a pass's CPU seconds and port-cycles per CPU second (medians
 * over passes), peak RSS, and the CPU time from a new job's start to
 * its first row and to its end and of a resubmitted job.
 */
void reportEndToEnd(Report &rep, const Samples &setup, const Samples &pass,
                    const Samples &rate, double peak_rss_mb,
                    const std::string &rss_note, const Samples &first_row,
                    const Latency &cold_job, const Latency &warm_job);

/** Report every per-layer metric, in the fixed order, from @p got;
 *  a layer the workload does not exercise reads 0. */
void reportLayers(Report &rep, const std::map<std::string, double> &got);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
