#include "sim/network_sim.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>

#include "common/hash.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

#ifdef HIRISE_CHECK_ENABLED
#include "check/invariants.hh"
#endif

namespace hirise::sim {

namespace {

/** Registry handles resolved once per process; every bump is behind
 *  the obs::on() guard, so the disabled path never touches them. */
struct SimMetrics
{
    obs::Counter &injected;
    obs::Counter &delivered;
    obs::Counter &flits;
    obs::Counter &inFlightCensored;

    static SimMetrics &
    get()
    {
        static SimMetrics m{
            obs::MetricsRegistry::global().counter(
                "sim.packets_injected"),
            obs::MetricsRegistry::global().counter(
                "sim.packets_delivered"),
            obs::MetricsRegistry::global().counter(
                "sim.flits_delivered"),
            obs::MetricsRegistry::global().counter(
                "sim.in_flight_at_measure_end"),
        };
        return m;
    }
};

/** Traced bodies live cold and out-of-line so the untraced hot loop
 *  pays only the obs::on() test+branch at each site. */
[[gnu::cold]] [[gnu::noinline]] void
recordInject(std::uint32_t src, std::uint32_t dst, std::uint64_t id)
{
    SimMetrics::get().injected.inc();
    obs::CycleTracer::global().record(obs::Ev::Inject, src, dst, 0, id);
}

/** Traced injection of virtual packets: the Inject events the
 *  materialized queues would emit (ascending input order, ids from
 *  @p first_id), so traces do not depend on the queue mode. */
[[gnu::cold]] [[gnu::noinline]] void
recordInjectWord(traffic::TrafficPattern &pat, std::uint32_t k,
                 BitVec::Word bits, net::Cycle cycle,
                 std::uint64_t seed, net::PacketId first_id)
{
    for (BitVec::Word w = bits; w; w &= w - 1) {
        const std::uint32_t i =
            k * BitVec::kWordBits +
            static_cast<std::uint32_t>(std::countr_zero(w));
        recordInject(i, pat.destAt(i, cycle, seed), first_id++);
    }
}

[[gnu::cold]] [[gnu::noinline]] void
recordGrant(std::uint32_t in, std::uint32_t out, std::uint32_t vc,
            std::uint64_t packet)
{
    obs::CycleTracer::global().record(obs::Ev::Grant, in, out, vc,
                                      packet);
}

[[gnu::cold]] [[gnu::noinline]] void
recordRelease(std::uint32_t in, std::uint32_t out,
              std::uint32_t packet_len, std::uint64_t packet)
{
    SimMetrics::get().delivered.inc();
    SimMetrics::get().flits.inc(packet_len);
    obs::CycleTracer::global().record(obs::Ev::Release, in, out, 0,
                                      packet);
}

} // namespace

NetworkSim::NetworkSim(const SwitchSpec &spec, const SimConfig &cfg,
                       std::shared_ptr<traffic::TrafficPattern> pattern)
    : NetworkSim(spec, cfg, std::move(pattern),
                 fabric::makeFabric(spec))
{}

NetworkSim::NetworkSim(const SwitchSpec &spec, const SimConfig &cfg,
                       std::shared_ptr<traffic::TrafficPattern> pattern,
                       std::unique_ptr<fabric::Fabric> fabric)
    : spec_(spec), cfg_(cfg), pattern_(std::move(pattern)),
      core_(std::move(fabric)), event_(!cfg.denseStepping),
      memoryless_(pattern_->memoryless()),
      wheelOn_(event_ && memoryless_),
      vqOn_(memoryless_ && !cfg.legacySatQueues),
      candVcScratch_(spec.radix, net::InputPort::kNoVc),
      fillPending_(spec.radix),
      perInputLatency_(spec.radix), perInputPackets_(spec.radix, 0)
{
    ports_.assign(spec.radix,
                  net::InputPort(cfg.numVcs, cfg.vcDepth));
    if (vqOn_)
        vq_.init(*pattern_, spec_.radix, cfg_.packetLen, cfg_.seed);
    if (wheelOn_) {
        wheel_.init(*pattern_, spec_.radix, cfg_.injectionRate,
                    cfg_.seed, 0);
    }
    if (cfg_.trace && !obs::CycleTracer::global().enabled())
        obs::CycleTracer::global().enable();
}

void
NetworkSim::setFaultSchedule(const FaultSchedule &sched)
{
    sim_assert(cycle_ == 0,
               "fault schedule must be attached before stepping");
    if (sched.empty())
        return; // inert: zero hot-path cost
    sim_assert(core_.fabric().supportsChannelFaults(),
               "fabric '%s' cannot take channel faults",
               toString(spec_.topo));
    faultMgr_ = FaultManager(sched, spec_, cfg_.seed);
    faultsOn_ = true;
    brokenScratch_.reserve(spec_.radix);
}

void
NetworkSim::injectWord(std::uint32_t k, BitVec::Word bits)
{
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::popcount(bits));
    if (vqOn_) {
        // The packets stay virtual until each heads its queue.
        fillPending_.words()[k] |=
            vq_.injectWord(k, bits, nextId_, cycle_);
        if (obs::on()) [[unlikely]]
            recordInjectWord(*pattern_, k, bits, cycle_, cfg_.seed,
                             nextId_);
        nextId_ += n;
    } else {
        for (BitVec::Word w = bits; w; w &= w - 1) {
            net::Packet p;
            p.id = nextId_++;
            p.src = k * BitVec::kWordBits +
                    static_cast<std::uint32_t>(std::countr_zero(w));
            p.dst = pattern_->destAt(p.src, cycle_, cfg_.seed);
            sim_assert(p.dst < spec_.radix, "pattern dst out of range");
            p.lenFlits = static_cast<std::uint16_t>(cfg_.packetLen);
            p.genCycle = cycle_;
            ports_[p.src].sourceQueue().push_back(p);
            if (obs::on()) [[unlikely]]
                recordInject(p.src, p.dst, p.id);
        }
        fillPending_.words()[k] |= bits;
    }
    injected_ += n;
    if (measuring_) {
        measFlitsOffered_ += std::uint64_t(n) * cfg_.packetLen;
        measPacketsInjected_ += n;
    }
}

void
NetworkSim::injectCycle()
{
    if (vqOn_)
        vq_.beginCycle(cycle_, nextId_);
    // Both schedules hand out this cycle's injections a word of
    // inputs at a time in ascending input order, so packet ids agree
    // between the stepping modes.
    if (wheelOn_) {
        wheel_.popDue(cycle_, [this](std::uint32_t k, BitVec::Word bits) {
            injectWord(k, bits);
        });
        return;
    }
    for (std::uint32_t base = 0; base < spec_.radix;
         base += BitVec::kWordBits) {
        const std::uint32_t end =
            std::min(spec_.radix, base + BitVec::kWordBits);
        BitVec::Word bits = 0;
        for (std::uint32_t i = base; i < end; ++i) {
            if (pattern_->injectAt(i, cycle_, cfg_.injectionRate,
                                   cfg_.seed))
                bits |= BitVec::Word(1) << (i - base);
        }
        if (bits)
            injectWord(base / BitVec::kWordBits, bits);
    }
}

void
NetworkSim::fillPhase()
{
    // Only inputs with source-queue backlog can move a flit; an
    // in-flight fill implies a non-empty queue (the packet leaves the
    // queue only with its last flit). Resetting the current bit
    // inside forEachSet is safe (iteration copies each word).
    fillPending_.forEachSet([&](std::uint32_t i) {
        net::InputPort &port = ports_[i];
        bool emptied;
        if (vqOn_) {
            emptied = port.fillFrom(vq_.head(i)) && !vq_.advance(i);
        } else {
            port.fillCycle();
            emptied = port.sourceQueue().empty();
        }
        if (!port.connected() && port.anyVcOccupied())
            core_.wake(i);
        if (emptied)
            fillPending_.reset(i);
    });
}

void
NetworkSim::arbitrateCycle()
{
    // A non-connected port with an occupied VC always has a ready
    // head, and pickCandidateVc leaves its round-robin pointer
    // untouched when no VC is head-ready, so the event core's walk of
    // the waiting inputs and the dense scan make the same picks.
    auto pick = [this](std::uint32_t i) {
        const std::uint32_t v =
            ports_[i].pickCandidateVc(&core_.freeOutputs());
        if (v == net::InputPort::kNoVc)
            return fabric::kNoRequest;
        candVcScratch_[i] = v;
        return ports_[i].vcDest(v);
    };
    auto grant = [this](std::uint32_t i, std::uint32_t out) {
        const std::uint32_t v = candVcScratch_[i];
        const net::Packet &head = ports_[i].vcs()[v].packet();
        if (measuring_)
            queueing_.add(static_cast<double>(cycle_ - head.genCycle));
        if (obs::on()) [[unlikely]]
            recordGrant(i, out, v, head.id);
        ports_[i].connect(v, out);
    };
    if (event_)
        core_.arbitrate(pick, grant);
    else
        core_.arbitrateDense(pick, grant);
}

void
NetworkSim::transferCycle()
{
    core_.transfer([&](std::uint32_t i) {
        net::InputPort &port = ports_[i];
        sim_assert(port.connected(), "stale connected bit %u", i);
        const net::VirtualChannel &vc = port.vcs()[port.connVc()];
        if (vc.empty())
            return; // bubble: flit not yet streamed in from source
        const net::Packet &pkt = vc.packet();
        std::uint32_t out = port.connOutput();
        sim_assert(pkt.dst == out, "flit routed to wrong output");
        ++flitsDelivered_;
        if (measuring_)
            ++measFlitsDelivered_;
        if (faultsOn_) {
            // Flaky-link error draw, attributed to the L2LC this
            // flit crossed (read before a tail flit releases it).
            faultMgr_.onFlitTransfer(
                cycle_, core_.fabric().heldChannelId(out));
        }
        if (port.sendFlit()) {
            core_.release(i, port.anyVcOccupied());
            ++delivered_;
            if (measuring_) {
                double lat = static_cast<double>(cycle_ - pkt.genCycle);
                latency_.add(lat);
                latencyHist_.add(lat);
                perInputLatency_[pkt.src].add(lat);
                ++perInputPackets_[pkt.src];
                if (pkt.genCycle >= measureStart_)
                    ++measPacketsCompleted_;
            }
            if (obs::on()) [[unlikely]]
                recordRelease(i, out, cfg_.packetLen, pkt.id);
        }
    });
    if (faultsOn_) {
        // Isolations tripped by this cycle's error draws apply after
        // the transfer walk (never mid-iteration).
        brokenScratch_.clear();
        faultMgr_.applyPending(cycle_, core_.fabric(), brokenScratch_);
        if (!brokenScratch_.empty())
            handleBroken(brokenScratch_);
    }
}

void
NetworkSim::handleBroken(
    const std::vector<fabric::BrokenConn> &broken)
{
    for (const auto &bc : broken) {
        const std::uint32_t i = bc.input;
        net::InputPort &port = ports_[i];
        ++packetsDropped_;
        if (measuring_ && port.connGenCycle() >= measureStart_)
            ++measPacketsDropped_;
        std::uint32_t flits_dropped = 0;
        bool pop_source = false;
        port.breakConnection(flits_dropped, pop_source);
        droppedFlits_ += flits_dropped;
        if (pop_source) {
            // The dropped packet was still streaming from the (real
            // or virtual) source queue head; retire it there too.
            bool emptied;
            if (vqOn_) {
                emptied = !vq_.advance(i);
            } else {
                port.sourceQueue().pop_front();
                emptied = port.sourceQueue().empty();
            }
            if (emptied)
                fillPending_.reset(i);
        }
        core_.dropBroken(bc, port.anyVcOccupied());
    }
}

bool
NetworkSim::canFastForward() const
{
    // Quiescent: no queued packet, no buffered flit, no connection.
    // With the injection wheel live the next state change is its
    // next due slot, so whole idle spans can be skipped. Without it
    // (stateful pattern, or the dense core) the next injection time
    // is unknown, so every cycle must be stepped.
    return wheelOn_ && core_.quiescent() && fillPending_.none();
}

void
NetworkSim::stepOnce()
{
    if (obs::on()) [[unlikely]]
        obs::setTraceCycle(cycle_);
    if (faultsOn_) {
        // Topology changes land at cycle start, before injection, so
        // the whole cycle sees the new channel set.
        brokenScratch_.clear();
        faultMgr_.beginCycle(cycle_, core_.fabric(), brokenScratch_);
        if (!brokenScratch_.empty())
            handleBroken(brokenScratch_);
    }
    injectCycle();
    fillPhase();
    arbitrateCycle();
    transferCycle();
    ++cycle_;
#ifdef HIRISE_CHECK_ENABLED
    checkInvariants();
#endif
}

void
NetworkSim::stepTo(net::Cycle bound)
{
    sim_assert(cycle_ < bound, "stepTo must advance");
    if (event_ && canFastForward()) {
        net::Cycle next = std::min(bound, wheel_.nextDue(cycle_));
        // Never jump a scheduled fault event or pending unisolation:
        // those cycles must be stepped so beginCycle applies them on
        // time (fabric state changes even in quiescent spans).
        if (faultsOn_)
            next = std::min(next, faultMgr_.nextEventCycle());
        if (next > cycle_) {
            // Nothing can happen before `next`; account the skipped
            // request-free arbitration cycles for stats parity.
            core_.skipIdleCycles(next - cycle_);
            cycle_ = next;
            if (cycle_ >= bound)
                return;
        }
    }
    stepOnce();
}

#ifdef HIRISE_CHECK_ENABLED
void
NetworkSim::checkInvariants() const
{
    check::verifyFlitConservation(injected_ * cfg_.packetLen,
                                  flitsDelivered_, backlogFlits(),
                                  droppedFlits_);
    auto holder = [this](std::uint32_t o) {
        return core_.fabric().outputHolder(o);
    };
    check::verifyHolderInjective(spec_.radix, holder);
    for (std::uint32_t i = 0; i < spec_.radix; ++i) {
        check::verifyVcState(ports_[i], cfg_.vcDepth, spec_.radix);
        sim_assert(core_.connected(i) == ports_[i].connected(),
                   "connected bit %u out of sync", i);
        sim_assert(fillPending_.test(i) == (queuedPackets(i) != 0),
                   "fillPending_ bit %u out of sync", i);
        sim_assert(core_.waiting(i) ==
                       (!ports_[i].connected() &&
                        ports_[i].anyVcOccupied()),
                   "waiting bit %u out of sync", i);
        // A connected port and the fabric's holder table must agree:
        // the connection-held matrix switch has exactly one grantee
        // per output bus.
        if (ports_[i].connected()) {
            sim_assert(holder(ports_[i].connOutput()) == i &&
                           core_.heldOutput(i) == ports_[i].connOutput(),
                       "connected port %u does not hold output %u", i,
                       ports_[i].connOutput());
        }
    }
}
#endif

std::uint64_t
NetworkSim::backlogFlits() const
{
    std::uint64_t n = 0;
    for (const auto &p : ports_)
        n += p.backlogFlits();
    if (vqOn_) {
        // Virtual queue contents; InputPort::backlogFlits() already
        // discounted the head's partially streamed flits.
        for (std::uint32_t i = 0; i < spec_.radix; ++i)
            n += vq_.pendingFlits(i);
    }
    return n;
}

void
NetworkSim::advanceTo(net::Cycle target)
{
    // Boundaries are absolute, so this is restartable anywhere: a
    // restored simulator continues from cycle_ and flips the
    // measurement window at exactly the same cycles as an
    // uninterrupted run.
    while (cycle_ < target) {
        if (!measuring_ && cycle_ >= warmEnd() && cycle_ < runEnd()) {
            measuring_ = true;
            measureStart_ = warmEnd();
        }
        net::Cycle bound = target;
        if (cycle_ < warmEnd())
            bound = std::min(bound, warmEnd());
        else if (cycle_ < runEnd())
            bound = std::min(bound, runEnd());
        stepTo(bound);
        if (measuring_ && cycle_ >= runEnd())
            measuring_ = false;
    }
}

SimResult
NetworkSim::run()
{
    advanceTo(runEnd());
    sim_assert(!measuring_, "measurement window still open");

    double window = static_cast<double>(runEnd() - warmEnd());
    SimResult r;
    r.offeredFlitsPerCycle =
        static_cast<double>(measFlitsOffered_) / window;
    r.acceptedFlitsPerCycle =
        static_cast<double>(measFlitsDelivered_) / window;
    r.avgLatencyCycles = latency_.mean();
    r.avgQueueingCycles = queueing_.mean();
    r.p99LatencyCycles = latencyHist_.quantile(0.99);
    r.packetsDelivered = latency_.count();
    r.packetsDropped = packetsDropped_;
    sim_assert(measPacketsCompleted_ + measPacketsDropped_ <=
                   measPacketsInjected_,
               "more window packets completed+dropped than injected");
    r.inFlightAtMeasureEnd = measPacketsInjected_ -
                             measPacketsCompleted_ -
                             measPacketsDropped_;
    r.latencyOverflowPackets = latencyHist_.overflowCount();
    if (obs::on()) [[unlikely]] {
        SimMetrics::get().inFlightCensored.inc(
            r.inFlightAtMeasureEnd);
    }

    r.perInputLatency.resize(spec_.radix, 0.0);
    r.perInputThroughput.resize(spec_.radix, 0.0);
    std::vector<double> active_tput;
    for (std::uint32_t i = 0; i < spec_.radix; ++i) {
        r.perInputLatency[i] = perInputLatency_[i].mean();
        r.perInputThroughput[i] =
            static_cast<double>(perInputPackets_[i]) / window;
        if (pattern_->participates(i))
            active_tput.push_back(r.perInputThroughput[i]);
    }
    r.fairness = jainFairness(active_tput);

    sim_assert(delivered_ <= injected_, "conservation violated");
    return r;
}

std::uint64_t
NetworkSim::configKey() const
{
    // FNV-1a over a canonical configuration string: everything the
    // restoring process must have reconstructed identically for a
    // snapshot's state to make sense.
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "spec:%d/%u/%u/%u/%u/%d/%d/%u/%u/%llu;"
        "cfg:%u/%u/%u/%.17g/%llu/%llu/%llu;",
        static_cast<int>(spec_.topo), spec_.radix, spec_.layers,
        spec_.channels, spec_.flitBits, static_cast<int>(spec_.arb),
        static_cast<int>(spec_.alloc), spec_.clrgMaxCount,
        spec_.schedIters,
        static_cast<unsigned long long>(spec_.schedSeed), cfg_.numVcs,
        cfg_.vcDepth, cfg_.packetLen, cfg_.injectionRate,
        static_cast<unsigned long long>(cfg_.warmupCycles),
        static_cast<unsigned long long>(cfg_.measureCycles),
        static_cast<unsigned long long>(cfg_.seed));
    std::string s = buf;
    s += "pat:" + pattern_->descriptor() + ";";
    if (faultsOn_)
        s += faultMgr_.schedule().descriptor();
    // A saturated run's payload layout depends on the queue mode; the
    // default mode adds nothing, so existing snapshots keep their key.
    if (cfg_.legacySatQueues)
        s += "queues:materialized;";
    Fnv1a h;
    h.str(s);
    return h.value();
}

void
NetworkSim::save(snap::Writer &w) const
{
    w.u64(cycle_);
    w.u64(nextId_);
    w.u64(injected_);
    w.u64(delivered_);
    w.u64(flitsDelivered_);
    w.u64(droppedFlits_);
    w.u64(packetsDropped_);
    w.b(measuring_);
    w.u64(measureStart_);
    w.u64(measFlitsDelivered_);
    w.u64(measFlitsOffered_);
    w.u64(measPacketsInjected_);
    w.u64(measPacketsCompleted_);
    w.u64(measPacketsDropped_);
    latency_.save(w);
    queueing_.save(w);
    latencyHist_.save(w);
    for (const auto &st : perInputLatency_)
        st.save(w);
    w.vec(perInputPackets_);
    // Virtual queues write the records materialized queues would,
    // except at saturation, whose format keeps only each input's next
    // packet (its queue then holds every cycle since that packet's).
    const bool sat = VirtualSourceQueues::saturates(cfg_.injectionRate);
    for (std::uint32_t i = 0; i < spec_.radix; ++i) {
        if (vqOn_ && !sat)
            vq_.saveQueue(w, i);
        else
            ports_[i].saveQueue(w);
        ports_[i].saveState(w);
    }
    if (vqOn_ && sat)
        vq_.saveSaturated(w, cycle_, nextId_);
    core_.fabric().save(w);
    faultMgr_.save(w);
    pattern_->save(w);
    // Derived structures (the switch core's sets, the fill bitset,
    // the injection wheel, the virtual queues' log) are rebuilt on
    // load; the core's request scratch is all-idle between cycles.
}

void
NetworkSim::load(snap::Reader &r)
{
    cycle_ = r.u64();
    nextId_ = r.u64();
    injected_ = r.u64();
    delivered_ = r.u64();
    flitsDelivered_ = r.u64();
    droppedFlits_ = r.u64();
    packetsDropped_ = r.u64();
    measuring_ = r.b();
    measureStart_ = r.u64();
    measFlitsDelivered_ = r.u64();
    measFlitsOffered_ = r.u64();
    measPacketsInjected_ = r.u64();
    measPacketsCompleted_ = r.u64();
    measPacketsDropped_ = r.u64();
    latency_.load(r);
    queueing_.load(r);
    latencyHist_.load(r);
    for (auto &st : perInputLatency_)
        st.load(r);
    r.vec(perInputPackets_);
    for (auto &p : ports_)
        p.load(r);
    if (vqOn_)
        loadVirtualQueues(r);
    core_.fabric().load(r);
    faultMgr_.load(r);
    pattern_->load(r);
    rebuildDerived();
}

void
NetworkSim::loadVirtualQueues(snap::Reader &r)
{
    if (VirtualSourceQueues::saturates(cfg_.injectionRate)) {
        vq_.loadSaturated(r, cycle_);
        for (std::uint32_t i = 0; i < spec_.radix; ++i) {
            if (vq_.pending(i))
                ports_[i].resumeFill(vq_.head(i));
        }
        vq_.rebuildLog(cycle_, nextId_, cfg_.injectionRate);
        return;
    }
    // The records went into the ports' own queues (which also resumed
    // the packet streaming in); hand them to the virtual queues, and
    // check every one against the packets the rebuilt log gives.
    for (std::uint32_t i = 0; i < spec_.radix; ++i) {
        const auto &q = ports_[i].sourceQueue();
        if (!q.empty())
            vq_.restore(i, q.size(), q.front());
    }
    vq_.rebuildLog(cycle_, nextId_, cfg_.injectionRate);
    for (std::uint32_t i = 0; i < spec_.radix; ++i) {
        auto &q = ports_[i].sourceQueue();
        std::size_t k = 0;
        vq_.forEachQueued(i, [&](const net::Packet &p) {
            sim_assert(p.id == q[k].id && p.dst == q[k].dst &&
                           p.genCycle == q[k].genCycle &&
                           p.lenFlits == q[k].lenFlits,
                       "snapshot packet %zu of input %u is not the "
                       "one its counter streams give",
                       k, i);
            ++k;
        });
        q.clear();
    }
}

void
NetworkSim::rebuildDerived()
{
    core_.resyncFreeOutputs();
    for (std::uint32_t i = 0; i < spec_.radix; ++i) {
        const net::InputPort &p = ports_[i];
        core_.restoreInput(i,
                           p.connected() ? p.connOutput()
                                         : fabric::kNoRequest,
                           p.anyVcOccupied());
        fillPending_.assign(i, queuedPackets(i) != 0);
    }
    if (wheelOn_) {
        // Injection cycles are pure functions of the counter streams,
        // so rescheduling from the restored cycle reproduces them
        // (probe placement may differ, which is outcome-neutral).
        wheel_.init(*pattern_, spec_.radix, cfg_.injectionRate,
                    cfg_.seed, cycle_);
    }
#ifdef HIRISE_CHECK_ENABLED
    checkInvariants();
#endif
}

bool
NetworkSim::saveSnapshotFile(const std::string &path) const
{
    snap::Writer w;
    save(w);
    return w.writeFile(path, configKey());
}

bool
NetworkSim::loadSnapshotFile(const std::string &path)
{
    snap::Reader r;
    if (!r.readFile(path, configKey()))
        return false;
    load(r);
    sim_assert(r.done(), "snapshot payload not fully consumed");
    return true;
}

} // namespace hirise::sim
