/**
 * @file
 * Cycle-event tracer: a ring-buffered log of structured simulation
 * events (inject, grant, release, L2LC allocation, CLRG class
 * promotion/halve, cache hit/miss, experiment begin/end), exportable
 * as JSONL and as Chrome trace_event JSON for chrome://tracing.
 *
 * Cost model: instrumentation sites are guarded by obs::on(), a single
 * relaxed atomic-bool load plus a branch that is never taken in the
 * default (disabled) state, so tracing off costs nothing measurable on
 * the simulation hot path.
 *
 * The tracer is process-wide (CycleTracer::global()). Events carry the
 * current simulation cycle, published per worker thread via
 * setTraceCycle() (thread-local, so parallel campaign workers never
 * race), and a small per-thread id for disentangling interleaved runs.
 * The ring overwrites its oldest entries when full; dropped() reports
 * how many were lost so exports can say so.
 */

#ifndef HIRISE_OBS_TRACE_HH
#define HIRISE_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hirise::obs {

// -- master runtime guard for all hot-path instrumentation ------------
namespace detail {
extern std::atomic<bool> g_obsOn;
} // namespace detail

/** True iff observability (tracer and/or hot-path metrics) is live. */
inline bool
on()
{
    return detail::g_obsOn.load(std::memory_order_relaxed);
}

void setEnabled(bool v);

/** Event kinds; toString()/evFromString() define the wire names. */
enum class Ev : std::uint8_t
{
    Inject,       //!< a=src, b=dst, id=packet id
    Grant,        //!< a=input, b=output, c=VC, id=packet id
    Release,      //!< a=input, b=output, id=packet id
    ChanAlloc,    //!< a=chanId, b=input, c=output (Hi-Rise cross grant)
    ClassPromote, //!< a=primary input, b=new counter value (CLRG)
    ClassHalve,   //!< a=saturating input, b=maxCount (CLRG bank halve)
    CacheHit,     //!< id=cache key
    CacheMiss,    //!< id=cache key
    ExpBegin,     //!< a=name id, cycle=wall-clock microseconds
    ExpEnd,       //!< a=name id, cycle=wall-clock microseconds
    ChanFail,     //!< a=chanId (scheduled/layer fault)
    ChanRecover,  //!< a=chanId (scheduled recovery / unisolation)
    LinkError,    //!< a=chanId (flaky-link flit error, corrected)
    Isolate,      //!< a=chanId, b=errors in window (threshold trip)
    Unisolate,    //!< a=chanId (recovery window elapsed)
};

constexpr std::uint32_t kNumEv = 15;

const char *toString(Ev e);

/** Parse a wire name back to its kind; false if unknown. */
bool evFromString(std::string_view s, Ev *out);

/** One ring entry; meaning of a/b/c/id depends on kind (see Ev). */
struct TraceEvent
{
    std::uint64_t cycle = 0;
    std::uint64_t id = 0;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t c = 0;
    std::uint16_t tid = 0;
    Ev kind = Ev::Inject;
};

/** Publish the current simulation cycle for this thread's events. */
void setTraceCycle(std::uint64_t cycle);

class CycleTracer
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1u << 20;

    /** Arm the tracer (allocating the ring) and flip the global
     *  obs::on() guard so instrumented sites start recording. */
    void enable(std::size_t capacity = kDefaultCapacity);

    /** Stop recording. Leaves obs::on() untouched (metrics may still
     *  be wanted); buffered events remain exportable. */
    void disable();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Drop all buffered events and interned names. */
    void clear();

    /** Append one event stamped with this thread's current cycle. */
    void record(Ev kind, std::uint32_t a = 0, std::uint32_t b = 0,
                std::uint32_t c = 0, std::uint64_t id = 0);

    /** Append one event with an explicit timestamp (wall-clock events
     *  from the harness use microseconds instead of cycles). */
    void recordAt(std::uint64_t stamp, Ev kind, std::uint32_t a = 0,
                  std::uint32_t b = 0, std::uint32_t c = 0,
                  std::uint64_t id = 0);

    /** Intern @p name for ExpBegin/ExpEnd events; returns its id. */
    std::uint32_t internName(std::string_view name);

    /** Buffered events, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    /** Interned name table (index == name id). */
    std::vector<std::string> names() const;

    std::uint64_t recorded() const; //!< total events ever recorded
    std::uint64_t dropped() const;  //!< overwritten by ring wrap

    /** Write header + one JSON object per event; false on I/O error. */
    bool exportJsonl(const std::string &path) const;

    /** Write Chrome trace_event JSON (chrome://tracing / Perfetto). */
    bool exportChrome(const std::string &path) const;

    static CycleTracer &global();

  private:
    mutable std::mutex mu_;
    std::atomic<bool> enabled_{false};
    std::vector<TraceEvent> ring_;
    std::size_t capacity_ = 0;
    std::size_t head_ = 0; //!< next write slot
    std::size_t size_ = 0;
    std::uint64_t recorded_ = 0;
    std::vector<std::string> names_;
};

} // namespace hirise::obs

#endif // HIRISE_OBS_TRACE_HH
