#include "sim/sim_cache.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "obs/trace.hh"

namespace hirise::sim {

namespace {

constexpr std::uint32_t kMagic = 0x48525343; // "HRSC"

/** Disk writes between store()-driven eviction attempts. */
constexpr std::uint32_t kEvictEvery = 32;

/** A *.tmp.* file this much older than the newest record is a
 *  crashed writer's leftover; the eviction pass deletes it. */
constexpr double kStaleTmpSeconds = 300.0;

/**
 * Scoped flock(2) on <dir>/.lock. Each instance opens its own file
 * descriptor: flock locks belong to the open file description, so a
 * shared fd would make a second lock call from another thread
 * *convert* the first lock instead of contending with it. Separate
 * fds give real mutual exclusion both across processes and across
 * threads of one process (tests/sim_cache_test.cc races two threads
 * through here). The lock dies with the fd — and with the process —
 * so a crash can never leave the directory wedged.
 */
class DirLock
{
  public:
    DirLock(const std::string &dir, int op)
    {
        std::string path = dir + "/.lock";
        fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                     0644);
        if (fd_ < 0)
            return;
        if (::flock(fd_, op) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~DirLock()
    {
        if (fd_ >= 0) {
            ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
    }

    DirLock(const DirLock &) = delete;
    DirLock &operator=(const DirLock &) = delete;

    bool held() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
};

/** Doubles hash via their bit pattern, canonicalized first: the
 *  simulation cannot distinguish -0.0 from 0.0 (sweep arithmetic like
 *  `lo + 0.5 * (hi - lo)` produces either spelling for the same
 *  injection rate), so both must map to one key. NaN has no canonical
 *  bit pattern and never names a valid simulation point, so it is
 *  rejected outright. */
void
hashDouble(Fnv1a &h, double v)
{
    sim_assert(!std::isnan(v), "NaN in simulation cache key");
    if (v == 0.0)
        v = 0.0; // -0.0 == 0.0 compares true; store +0.0 bits
    h.pod(std::bit_cast<std::uint64_t>(v));
}

/** Fixed on-disk field order; any layout change requires a
 *  kSimCacheVersion bump. */
struct RecordHeader
{
    std::uint32_t magic;
    std::uint32_t version;
    std::uint64_t key;
    std::uint64_t packetsDelivered;
    std::uint64_t inFlightAtMeasureEnd;
    std::uint64_t latencyOverflowPackets;
    std::uint64_t packetsDropped;
    double offered;
    double accepted;
    double avgLatency;
    double p99Latency;
    double avgQueueing;
    double fairness;
    std::uint32_t numPerInputLatency;
    std::uint32_t numPerInputThroughput;
};

} // namespace

SimCache::SimCache(std::size_t capacity, std::string disk_dir,
                   std::uint32_t version,
                   std::uint64_t disk_cap_bytes)
    : capacity_(capacity ? capacity : 1), diskDir_(std::move(disk_dir)),
      version_(version), diskCapBytes_(disk_cap_bytes)
{
    if (!diskDir_.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(diskDir_, ec);
        if (ec) {
            warn("simcache: cannot create '%s' (%s); disk tier off",
                 diskDir_.c_str(), ec.message().c_str());
            diskDir_.clear();
        }
    }
}

std::uint64_t
SimCache::key(const SwitchSpec &spec, const SimConfig &cfg,
              std::string_view pattern_desc,
              std::string_view fault_desc)
{
    Fnv1a h;
    h.pod(kSimCacheVersion);

    h.pod(static_cast<std::uint32_t>(spec.topo));
    h.pod(spec.radix);
    h.pod(spec.layers);
    h.pod(spec.channels);
    h.pod(spec.flitBits);
    h.pod(static_cast<std::uint32_t>(spec.arb));
    h.pod(static_cast<std::uint32_t>(spec.alloc));
    h.pod(spec.clrgMaxCount);
    h.pod(spec.schedIters);
    h.pod(spec.schedSeed);

    h.pod(cfg.numVcs);
    h.pod(cfg.vcDepth);
    h.pod(cfg.packetLen);
    hashDouble(h, cfg.injectionRate);
    h.pod(cfg.warmupCycles);
    h.pod(cfg.measureCycles);
    h.pod(cfg.seed);
    // cfg.trace, cfg.denseStepping, and cfg.legacySatQueues are
    // deliberately not hashed: none may change the SimResult (the
    // stepping modes and the virtual-vs-queued saturation paths are
    // bit-identical by construction), so a cached result from one
    // mode is valid for the others.

    h.pod(static_cast<std::uint64_t>(pattern_desc.size()));
    h.bytes(pattern_desc.data(), pattern_desc.size());
    // Fault-free runs hash an empty descriptor, so pre-fault keys for
    // schedule-less points are unchanged in spirit (the version bump
    // invalidates old records anyway).
    h.pod(static_cast<std::uint64_t>(fault_desc.size()));
    h.bytes(fault_desc.data(), fault_desc.size());
    return h.value();
}

bool
SimCache::lookup(std::uint64_t key, SimResult *out)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = index_.find(key);
        if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            *out = it->second->second;
            ++stats_.hits;
            if (obs::on()) [[unlikely]]
                obs::CycleTracer::global().record(obs::Ev::CacheHit, 0,
                                                  0, 0, key);
            return true;
        }
    }
    if (diskEnabled() && readDisk(key, out)) {
        std::lock_guard<std::mutex> lk(mu_);
        insertLocked(key, *out);
        ++stats_.hits;
        ++stats_.diskHits;
        if (obs::on()) [[unlikely]]
            obs::CycleTracer::global().record(obs::Ev::CacheHit, 1, 0,
                                              0, key);
        return true;
    }
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.misses;
    if (obs::on()) [[unlikely]]
        obs::CycleTracer::global().record(obs::Ev::CacheMiss, 0, 0, 0,
                                          key);
    return false;
}

void
SimCache::store(std::uint64_t key, const SimResult &r)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        insertLocked(key, r);
        ++stats_.stores;
    }
    if (diskEnabled())
        writeDisk(key, r);
}

void
SimCache::insertLocked(std::uint64_t key, const SimResult &r)
{
    auto it = index_.find(key);
    if (it != index_.end()) {
        it->second->second = r;
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.emplace_front(key, r);
    index_[key] = lru_.begin();
    while (index_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
    }
}

SimCache::Stats
SimCache::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

void
SimCache::resetStats()
{
    std::lock_guard<std::mutex> lk(mu_);
    stats_ = Stats{};
}

std::size_t
SimCache::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return index_.size();
}

std::string
SimCache::recordPath(std::uint64_t key) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.simres",
                  static_cast<unsigned long long>(key));
    return diskDir_ + "/" + name;
}

bool
SimCache::readDisk(std::uint64_t key, SimResult *out) const
{
    std::ifstream f(recordPath(key), std::ios::binary);
    if (!f)
        return false;
    RecordHeader hdr{};
    f.read(reinterpret_cast<char *>(&hdr), sizeof(hdr));
    if (!f || hdr.magic != kMagic || hdr.version != version_ ||
        hdr.key != key) {
        return false; // stale schema or foreign record: miss
    }
    SimResult r;
    r.offeredFlitsPerCycle = hdr.offered;
    r.acceptedFlitsPerCycle = hdr.accepted;
    r.avgLatencyCycles = hdr.avgLatency;
    r.p99LatencyCycles = hdr.p99Latency;
    r.avgQueueingCycles = hdr.avgQueueing;
    r.fairness = hdr.fairness;
    r.packetsDelivered = hdr.packetsDelivered;
    r.inFlightAtMeasureEnd = hdr.inFlightAtMeasureEnd;
    r.latencyOverflowPackets = hdr.latencyOverflowPackets;
    r.packetsDropped = hdr.packetsDropped;
    r.perInputLatency.resize(hdr.numPerInputLatency);
    r.perInputThroughput.resize(hdr.numPerInputThroughput);
    f.read(reinterpret_cast<char *>(r.perInputLatency.data()),
           static_cast<std::streamsize>(hdr.numPerInputLatency *
                                        sizeof(double)));
    f.read(reinterpret_cast<char *>(r.perInputThroughput.data()),
           static_cast<std::streamsize>(hdr.numPerInputThroughput *
                                        sizeof(double)));
    if (!f)
        return false;
    *out = std::move(r);
    return true;
}

bool
SimCache::evictDisk(bool wait)
{
    if (!diskEnabled() || diskCapBytes_ == 0)
        return false;
    DirLock lock(diskDir_, LOCK_EX | (wait ? 0 : LOCK_NB));
    if (!lock.held())
        return false; // another process is already evicting

    namespace fs = std::filesystem;
    struct Rec
    {
        fs::path path;
        fs::file_time_type mtime;
        std::uint64_t size;
    };
    std::vector<Rec> recs;
    std::uint64_t total = 0;
    fs::file_time_type newest{};
    std::error_code ec;
    for (const auto &ent : fs::directory_iterator(diskDir_, ec)) {
        const fs::path &p = ent.path();
        std::string name = p.filename().string();
        fs::file_time_type mt = ent.last_write_time(ec);
        if (ec)
            continue;
        if (name.size() > 7 &&
            name.compare(name.size() - 7, 7, ".simres") == 0) {
            std::uint64_t sz = ent.file_size(ec);
            if (ec)
                continue;
            recs.push_back({p, mt, sz});
            total += sz;
            newest = std::max(newest, mt);
        } else if (name.find(".tmp.") != std::string::npos) {
            // Crashed writer's leftover — but only when clearly old:
            // a live writer holds the shared lock, so we can't be
            // racing one here, yet clock skew across hosts on shared
            // storage still warrants the age margin.
            auto age = std::chrono::duration_cast<
                std::chrono::duration<double>>(
                fs::file_time_type::clock::now() - mt);
            if (age.count() > kStaleTmpSeconds)
                fs::remove(p, ec);
        }
    }
    (void)newest;
    if (total <= diskCapBytes_)
        return true;

    // Oldest-first, down to ~80% of the cap (hysteresis).
    std::sort(recs.begin(), recs.end(),
              [](const Rec &a, const Rec &b) {
                  return a.mtime < b.mtime;
              });
    std::uint64_t target = diskCapBytes_ - diskCapBytes_ / 5;
    for (const Rec &r : recs) {
        if (total <= target)
            break;
        if (fs::remove(r.path, ec))
            total -= r.size;
    }
    return true;
}

void
SimCache::writeDisk(std::uint64_t key, const SimResult &r)
{
    RecordHeader hdr{};
    hdr.magic = kMagic;
    hdr.version = version_;
    hdr.key = key;
    hdr.packetsDelivered = r.packetsDelivered;
    hdr.inFlightAtMeasureEnd = r.inFlightAtMeasureEnd;
    hdr.latencyOverflowPackets = r.latencyOverflowPackets;
    hdr.packetsDropped = r.packetsDropped;
    hdr.offered = r.offeredFlitsPerCycle;
    hdr.accepted = r.acceptedFlitsPerCycle;
    hdr.avgLatency = r.avgLatencyCycles;
    hdr.p99Latency = r.p99LatencyCycles;
    hdr.avgQueueing = r.avgQueueingCycles;
    hdr.fairness = r.fairness;
    hdr.numPerInputLatency =
        static_cast<std::uint32_t>(r.perInputLatency.size());
    hdr.numPerInputThroughput =
        static_cast<std::uint32_t>(r.perInputThroughput.size());

    // Atomic publish: concurrent writers of the same key race
    // harmlessly (identical contents), readers only ever see a
    // complete record. The shared directory lock excludes the
    // eviction pass (exclusive) for the whole temp-write + rename
    // window, so an evictor can never delete the temp file or
    // misjudge the record mid-publish; writers do not exclude each
    // other.
    {
        DirLock lock(diskDir_, LOCK_SH);
        std::string path = recordPath(key);
        std::string tmp =
            path + ".tmp." +
            std::to_string(static_cast<unsigned long long>(
                std::hash<std::thread::id>{}(
                    std::this_thread::get_id())));
        {
            std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
            if (!f)
                return;
            f.write(reinterpret_cast<const char *>(&hdr),
                    sizeof(hdr));
            f.write(reinterpret_cast<const char *>(
                        r.perInputLatency.data()),
                    static_cast<std::streamsize>(
                        r.perInputLatency.size() * sizeof(double)));
            f.write(reinterpret_cast<const char *>(
                        r.perInputThroughput.data()),
                    static_cast<std::streamsize>(
                        r.perInputThroughput.size() *
                        sizeof(double)));
            if (!f)
                return;
        }
        std::error_code ec;
        std::filesystem::rename(tmp, path, ec);
        if (ec)
            std::filesystem::remove(tmp, ec);
    }

    // Pace the cap check; runs with the shared lock released (the
    // pass takes the exclusive lock on its own fd).
    if (diskCapBytes_ != 0 &&
        storesSinceEvict_.fetch_add(1, std::memory_order_relaxed) +
                1 >=
            kEvictEvery) {
        storesSinceEvict_.store(0, std::memory_order_relaxed);
        evictDisk(false);
    }
}

namespace {

std::size_t
envCapacity()
{
    if (const char *env = std::getenv("HIRISE_SIMCACHE_CAP")) {
        long n = std::strtol(env, nullptr, 10);
        if (n > 0)
            return static_cast<std::size_t>(n);
    }
    return 4096;
}

std::string
envDiskDir()
{
    const char *dir = std::getenv("HIRISE_SIMCACHE_DIR");
    return dir ? dir : "";
}

std::uint64_t
envDiskCap()
{
    if (const char *env = std::getenv("HIRISE_SIMCACHE_DISK_CAP")) {
        long long n = std::strtoll(env, nullptr, 10);
        if (n > 0)
            return static_cast<std::uint64_t>(n);
    }
    return 0;
}

} // namespace

SimCache &
SimCache::global()
{
    static SimCache cache(envCapacity(), envDiskDir(),
                          kSimCacheVersion, envDiskCap());
    return cache;
}

} // namespace hirise::sim
