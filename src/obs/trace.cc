#include "obs/trace.hh"

#include <cinttypes>
#include <cstdio>

#include "common/logging.hh"

namespace hirise::obs {

namespace detail {
std::atomic<bool> g_obsOn{false};
} // namespace detail

void
setEnabled(bool v)
{
    detail::g_obsOn.store(v, std::memory_order_relaxed);
}

namespace {

thread_local std::uint64_t t_cycle = 0;
thread_local std::uint32_t t_tid = ~0u;
std::atomic<std::uint32_t> g_nextTid{0};

std::uint16_t
localTid()
{
    if (t_tid == ~0u)
        t_tid = g_nextTid.fetch_add(1, std::memory_order_relaxed);
    return static_cast<std::uint16_t>(t_tid & 0xffff);
}

constexpr const char *kEvNames[kNumEv] = {
    "inject",        "grant",       "release",    "chan_alloc",
    "class_promote", "class_halve", "cache_hit",  "cache_miss",
    "exp_begin",     "exp_end",     "chan_fail",  "chan_recover",
    "link_error",    "isolate",     "unisolate",
};

/** Minimal JSON string escaping for interned names. */
void
writeJsonString(std::FILE *f, const std::string &s)
{
    std::fputc('"', f);
    for (char ch : s) {
        switch (ch) {
          case '"':
            std::fputs("\\\"", f);
            break;
          case '\\':
            std::fputs("\\\\", f);
            break;
          case '\n':
            std::fputs("\\n", f);
            break;
          case '\t':
            std::fputs("\\t", f);
            break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20)
                std::fprintf(f, "\\u%04x", ch);
            else
                std::fputc(ch, f);
        }
    }
    std::fputc('"', f);
}

} // namespace

const char *
toString(Ev e)
{
    auto idx = static_cast<std::uint32_t>(e);
    sim_assert(idx < kNumEv, "bad event kind %u", idx);
    return kEvNames[idx];
}

bool
evFromString(std::string_view s, Ev *out)
{
    for (std::uint32_t i = 0; i < kNumEv; ++i) {
        if (s == kEvNames[i]) {
            *out = static_cast<Ev>(i);
            return true;
        }
    }
    return false;
}

void
setTraceCycle(std::uint64_t cycle)
{
    t_cycle = cycle;
}

void
CycleTracer::enable(std::size_t capacity)
{
    std::lock_guard<std::mutex> lk(mu_);
    capacity_ = capacity ? capacity : 1;
    ring_.assign(capacity_, TraceEvent{});
    head_ = size_ = 0;
    recorded_ = 0;
    enabled_.store(true, std::memory_order_relaxed);
    setEnabled(true);
}

void
CycleTracer::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

void
CycleTracer::clear()
{
    std::lock_guard<std::mutex> lk(mu_);
    head_ = size_ = 0;
    recorded_ = 0;
    names_.clear();
}

void
CycleTracer::record(Ev kind, std::uint32_t a, std::uint32_t b,
                    std::uint32_t c, std::uint64_t id)
{
    recordAt(t_cycle, kind, a, b, c, id);
}

void
CycleTracer::recordAt(std::uint64_t stamp, Ev kind, std::uint32_t a,
                      std::uint32_t b, std::uint32_t c, std::uint64_t id)
{
    if (!enabled())
        return;
    TraceEvent e;
    e.cycle = stamp;
    e.id = id;
    e.a = a;
    e.b = b;
    e.c = c;
    e.tid = localTid();
    e.kind = kind;
    std::lock_guard<std::mutex> lk(mu_);
    if (ring_.empty())
        return; // enabled() raced with enable(); drop harmlessly
    ring_[head_] = e;
    head_ = (head_ + 1) % capacity_;
    if (size_ < capacity_)
        ++size_;
    ++recorded_;
}

std::uint32_t
CycleTracer::internName(std::string_view name)
{
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return static_cast<std::uint32_t>(i);
    }
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
}

std::vector<TraceEvent>
CycleTracer::snapshot() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<TraceEvent> out;
    out.reserve(size_);
    // Oldest entry sits at head_ once the ring has wrapped.
    std::size_t start = size_ == capacity_ ? head_ : 0;
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(ring_[(start + i) % capacity_]);
    return out;
}

std::vector<std::string>
CycleTracer::names() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return names_;
}

std::uint64_t
CycleTracer::recorded() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return recorded_;
}

std::uint64_t
CycleTracer::dropped() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return recorded_ - size_;
}

bool
CycleTracer::exportJsonl(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("trace: cannot open '%s' for writing", path.c_str());
        return false;
    }
    auto events = snapshot();
    auto nm = names();
    std::fprintf(f,
                 "{\"schema\":\"hirise-trace-v1\",\"events\":%zu,"
                 "\"recorded\":%" PRIu64 ",\"dropped\":%" PRIu64
                 ",\"names\":[",
                 events.size(), recorded(), dropped());
    for (std::size_t i = 0; i < nm.size(); ++i) {
        if (i)
            std::fputc(',', f);
        writeJsonString(f, nm[i]);
    }
    std::fputs("]}\n", f);
    for (const auto &e : events) {
        std::fprintf(f,
                     "{\"cycle\":%" PRIu64 ",\"kind\":\"%s\",\"tid\":%u,"
                     "\"a\":%u,\"b\":%u,\"c\":%u,\"id\":%" PRIu64 "}\n",
                     e.cycle, toString(e.kind), e.tid, e.a, e.b, e.c,
                     e.id);
    }
    bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

bool
CycleTracer::exportChrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("trace: cannot open '%s' for writing", path.c_str());
        return false;
    }
    auto events = snapshot();
    auto nm = names();
    // Two synthetic processes: pid 0 holds cycle-stamped simulation
    // events (ts == cycle), pid 1 holds wall-clock harness spans
    // (ts == microseconds). chrome://tracing renders both.
    std::fputs("{\"traceEvents\":[", f);
    bool first = true;
    for (const auto &e : events) {
        if (!first)
            std::fputc(',', f);
        first = false;
        if (e.kind == Ev::ExpBegin || e.kind == Ev::ExpEnd) {
            const char *ph = e.kind == Ev::ExpBegin ? "B" : "E";
            std::string name = e.a < nm.size()
                                   ? nm[e.a]
                                   : std::string("experiment");
            std::fprintf(f,
                         "{\"name\":");
            writeJsonString(f, name);
            std::fprintf(f,
                         ",\"ph\":\"%s\",\"ts\":%" PRIu64
                         ",\"pid\":1,\"tid\":%u}",
                         ph, e.cycle, e.tid);
            continue;
        }
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                     "\"ts\":%" PRIu64 ",\"pid\":0,\"tid\":%u,"
                     "\"args\":{\"a\":%u,\"b\":%u,\"c\":%u,"
                     "\"id\":%" PRIu64 "}}",
                     toString(e.kind), e.cycle, e.tid, e.a, e.b, e.c,
                     e.id);
    }
    std::fputs("]}\n", f);
    bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

CycleTracer &
CycleTracer::global()
{
    static CycleTracer tracer;
    return tracer;
}

} // namespace hirise::obs
