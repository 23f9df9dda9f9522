#include "traffic/trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/hash.hh"
#include "common/logging.hh"

namespace hirise::traffic {

TraceReplay::TraceReplay(std::vector<TraceRecord> records,
                         std::uint32_t radix)
    : perSrc_(radix)
{
    std::stable_sort(records.begin(), records.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.cycle < b.cycle;
                     });
    Fnv1a h;
    h.pod(std::uint64_t{radix});
    for (const auto &r : records) {
        if (r.src >= radix || r.dst >= radix)
            fatal("trace record (%llu, %u, %u) outside radix %u",
                  static_cast<unsigned long long>(r.cycle), r.src,
                  r.dst, radix);
        if (r.src == r.dst)
            fatal("trace record with src == dst == %u", r.src);
        h.pod(r.cycle);
        h.pod((static_cast<std::uint64_t>(r.src) << 32) | r.dst);
        perSrc_[r.src].push_back(r);
        ++pending_;
    }
    digest_ = h.value();
}

TraceReplay
TraceReplay::fromFile(const std::string &path, std::uint32_t radix)
{
    std::ifstream f(path);
    if (!f)
        fatal("cannot open trace file %s", path.c_str());
    std::vector<TraceRecord> records;
    std::string line;
    std::uint64_t lineno = 0;
    while (std::getline(f, line)) {
        ++lineno;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream is(line);
        TraceRecord r;
        if (!(is >> r.cycle))
            continue; // blank / comment-only line
        if (!(is >> r.src >> r.dst))
            fatal("%s:%llu: expected 'cycle src dst'", path.c_str(),
                  static_cast<unsigned long long>(lineno));
        records.push_back(r);
    }
    return TraceReplay(std::move(records), radix);
}

bool
TraceReplay::injectAt(std::uint32_t src, std::uint64_t cycle,
                      double /*rate*/, std::uint64_t /*seed*/)
{
    const auto &q = perSrc_[src];
    return !q.empty() && q.front().cycle <= cycle;
}

std::uint32_t
TraceReplay::destAt(std::uint32_t src, std::uint64_t /*cycle*/,
                    std::uint64_t /*seed*/)
{
    auto &q = perSrc_[src];
    sim_assert(!q.empty(), "destAt() without a due record");
    std::uint32_t d = q.front().dst;
    q.pop_front();
    --pending_;
    return d;
}

bool
TraceReplay::participates(std::uint32_t src) const
{
    return !perSrc_[src].empty();
}

std::string
TraceReplay::descriptor() const
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest_));
    return std::string("trace-replay/") + buf;
}

} // namespace hirise::traffic
