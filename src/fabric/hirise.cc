#include "fabric/hirise.hh"

#include <algorithm>

#include "common/simd.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

#ifdef HIRISE_CHECK_ENABLED
#include "check/invariants.hh"
#endif

namespace hirise::fabric {

namespace {

/** Process-wide fabric counters; bumps are obs::on()-guarded. */
struct FabricMetrics
{
    obs::Counter &grantsLocal;
    obs::Counter &grantsCross;

    static FabricMetrics &
    get()
    {
        static FabricMetrics m{
            obs::MetricsRegistry::global().counter(
                "fabric.grants_local"),
            obs::MetricsRegistry::global().counter(
                "fabric.grants_cross"),
        };
        return m;
    }
};

/**
 * Cold, out-of-line batch recorder, called once per arbitrate() so
 * the phase-2 grant loop carries no guard at all. ChanAlloc events
 * are reconstructed from this cycle's grant set: a granted input's
 * output is its request, and heldChan_ distinguishes cross-layer
 * grants (channel id) from local ones (kNoRequest).
 */
[[gnu::cold]] [[gnu::noinline]] void
recordArbitrateObs(const BitVec &grant,
                   std::span<const std::uint32_t> req,
                   const std::vector<std::uint32_t> &held_chan,
                   std::uint64_t d_local, std::uint64_t d_cross)
{
    auto &m = FabricMetrics::get();
    m.grantsLocal.inc(d_local);
    m.grantsCross.inc(d_cross);
    auto &tr = obs::CycleTracer::global();
    grant.forEachSet([&](std::uint32_t in) {
        std::uint32_t o = req[in];
        std::uint32_t id = held_chan[o];
        if (id != kNoRequest)
            tr.record(obs::Ev::ChanAlloc, id, in, o);
    });
}

bool
anySet(const std::vector<std::uint8_t> &flags)
{
    return std::any_of(flags.begin(), flags.end(),
                       [](std::uint8_t f) { return f != 0; });
}

} // namespace

HiRiseFabric::HiRiseFabric(const SwitchSpec &spec)
    : Fabric(spec), ppl_(spec.portsPerLayer()), nlay_(spec.layers),
      chan_(spec.channels), ports_(spec.incomingChannels() + 1),
      holder_(spec.radix, kNoRequest),
      heldChan_(spec.radix, kNoRequest),
      chanBusy_(std::size_t(nlay_) * nlay_ * chan_, 0),
      chanFailed_(chanBusy_.size(), 0), busySince_(chanBusy_.size(), 0)
{
    sim_assert(spec.topo == Topology::HiRise, "wrong topology");

    port_.resize(spec.radix);
    for (std::uint32_t p = 0; p < spec.radix; ++p)
        port_[p] = {p / ppl_, p % ppl_, (p % ppl_) % chan_};
    chanInfo_.resize(chanBusy_.size());
    subPortChan_.assign(std::size_t(nlay_) * ports_, kNoRequest);
    for (std::uint32_t s = 0; s < nlay_; ++s) {
        for (std::uint32_t d = 0; d < nlay_; ++d) {
            for (std::uint32_t k = 0; k < chan_; ++k) {
                const std::uint32_t id = chanId(s, d, k);
                const std::uint32_t s_rank = s < d ? s : s - 1;
                const std::uint32_t port =
                    s == d ? kNoRequest : s_rank * chan_ + k;
                chanInfo_[id] = {s * ppl_, port};
                if (s != d)
                    subPortChan_[d * ports_ + port] = id;
            }
        }
    }

    interArb_.assign(spec.radix, arb::MatrixArbiter(ppl_));
    chanArb_.assign(std::size_t(nlay_) * nlay_ * chan_,
                    arb::MatrixArbiter(ppl_));
    subArb_.reserve(spec.radix);
    for (std::uint32_t o = 0; o < spec.radix; ++o) {
        subArb_.push_back(arb::makeSubBlockArbiter(
            spec.arb, ports_, spec.radix, spec.clrgMaxCount));
    }
    interCol_.resize(spec.radix);
    chanCol_.resize(chanBusy_.size());
    for (auto &c : interCol_)
        c.mask.resize(ppl_);
    for (auto &c : chanCol_)
        c.mask.resize(ppl_);
    activeInter_.reserve(interCol_.size());
    activeChan_.reserve(chanCol_.size());
    contendedOut_.resize(spec.radix);
    remaining_.resize(ppl_);
    subReqs_.resize(ports_); // default entries are invalid, and
                             // phase2 keeps them that way between
                             // outputs (sparse filledPorts_ reset)
    reqIdxScratch_.resize(spec.radix);
    chanNext_.assign(chanBusy_.size(), kNoRequest);
    outChanHead_.assign(spec.radix, kNoRequest);
    filledPorts_.reserve(ports_);
    stats_.chanGrants.assign(chanBusy_.size(), 0);
    stats_.chanBusyCycles.assign(chanBusy_.size(), 0);
}

double
HiRiseFabric::channelUtilization(std::uint32_t s, std::uint32_t d,
                                 std::uint32_t k) const
{
    if (arbitrateCalls_ == 0)
        return 0.0;
    return static_cast<double>(busyCycles(chanId(s, d, k))) /
           static_cast<double>(arbitrateCalls_);
}

HiRiseFabric::Stats
HiRiseFabric::stats() const
{
    Stats st = stats_;
    for (std::uint32_t id = 0; id < chanBusy_.size(); ++id)
        st.chanBusyCycles[id] = busyCycles(id);
    return st;
}

std::uint32_t
HiRiseFabric::channelFor(std::uint32_t input, std::uint32_t output) const
{
    std::uint32_t k = 0;
    switch (spec_.alloc) {
      case ChannelAlloc::InputBinned:
        k = port_[input].bin;
        break;
      case ChannelAlloc::OutputBinned:
        k = port_[output].bin;
        break;
      case ChannelAlloc::Priority:
        return kNoRequest; // chosen dynamically in phase 1
      default:
        return kNoRequest;
    }
    if (!anyFailed_)
        return k;
    // Remap around failed channels: probe the bin's channel first,
    // then the next surviving channel of the same layer pair.
    const std::uint32_t base =
        chanId(port_[input].layer, port_[output].layer, 0);
    for (std::uint32_t i = 0; i < chan_; ++i) {
        if (!chanFailed_[base + k])
            return k;
        if (++k == chan_)
            k = 0;
    }
    return kNoRequest;
}

void
HiRiseFabric::failChannel(std::uint32_t src_layer,
                          std::uint32_t dst_layer, std::uint32_t k,
                          std::vector<BrokenConn> *broken)
{
    sim_assert(src_layer != dst_layer && src_layer < nlay_ &&
                   dst_layer < nlay_ && k < chan_,
               "bad channel (%u,%u,%u)", src_layer, dst_layer, k);
    std::uint32_t id = chanId(src_layer, dst_layer, k);
    if (chanFailed_[id])
        return;
    chanFailed_[id] = 1;
    anyFailed_ = true;
    if (chanBusy_[id]) {
        // The channel is pinned by an in-flight connection: break it.
        // A destination layer has ppl_ final outputs; only those can
        // pin a channel ending at dst_layer.
        std::uint32_t victim = kNoRequest;
        for (std::uint32_t lo = 0; lo < ppl_; ++lo) {
            std::uint32_t o = dst_layer * ppl_ + lo;
            if (heldChan_[o] != id)
                continue;
            victim = o;
            if (broken)
                broken->push_back({holder_[o], o});
            holder_[o] = kNoRequest;
            heldChan_[o] = kNoRequest;
            break;
        }
        sim_assert(victim != kNoRequest,
                   "busy channel %u pinned by no output", id);
        closeBusySpan(id);
    }
    if (obs::on()) [[unlikely]]
        obs::MetricsRegistry::global()
            .gauge("fabric.advertised_capacity")
            .set(advertisedCapacity());
}

void
HiRiseFabric::recoverChannel(std::uint32_t src_layer,
                             std::uint32_t dst_layer, std::uint32_t k)
{
    sim_assert(src_layer != dst_layer && src_layer < nlay_ &&
                   dst_layer < nlay_ && k < chan_,
               "bad channel (%u,%u,%u)", src_layer, dst_layer, k);
    std::uint32_t id = chanId(src_layer, dst_layer, k);
    if (!chanFailed_[id])
        return;
    chanFailed_[id] = 0;
    anyFailed_ = anySet(chanFailed_);
    if (obs::on()) [[unlikely]]
        obs::MetricsRegistry::global()
            .gauge("fabric.advertised_capacity")
            .set(advertisedCapacity());
}

std::uint32_t
HiRiseFabric::survivingChannels(std::uint32_t src_layer,
                                std::uint32_t dst_layer) const
{
    std::uint32_t n = 0;
    for (std::uint32_t k = 0; k < chan_; ++k) {
        if (!chanFailed_[chanId(src_layer, dst_layer, k)])
            ++n;
    }
    return n;
}

std::uint32_t
HiRiseFabric::advertisedCapacity() const
{
    std::uint32_t n = 0;
    for (std::uint32_t s = 0; s < nlay_; ++s) {
        for (std::uint32_t d = 0; d < nlay_; ++d) {
            if (s != d)
                n += survivingChannels(s, d);
        }
    }
    return n;
}

bool
HiRiseFabric::channelBusy(std::uint32_t s, std::uint32_t d,
                          std::uint32_t k) const
{
    return chanBusy_[chanId(s, d, k)] != 0;
}

void
HiRiseFabric::resetScratch()
{
    // Only columns touched last cycle need resetting (masks are
    // cleared lazily on first touch in collectRequests), so idle
    // columns cost nothing.
    for (std::uint32_t o : activeInter_) {
        auto &c = interCol_[o];
        c.active = false;
        c.winner = arb::MatrixArbiter::kNone;
        c.weight = 0;
    }
    for (std::uint32_t id : activeChan_) {
        auto &c = chanCol_[id];
        c.active = false;
        c.winner = arb::MatrixArbiter::kNone;
        c.weight = 0;
    }
    activeInter_.clear();
    activeChan_.clear();
}

// Bin one request into its phase-1 column(s). Shared by the dense
// full-radix scan and the active-list path; column fill order depends
// only on the (ascending) order of calls, so both paths are
// bit-identical when the active list is ascending.
inline void
HiRiseFabric::collectRequest(std::uint32_t i, std::uint32_t o)
{
    sim_assert(o < spec_.radix, "request to bad output %u", o);
    const std::uint32_t s = port_[i].layer;
    const std::uint32_t d = port_[o].layer;
    const std::uint32_t li = port_[i].local;

    if (d == s) {
        // Same-layer: contend for the dedicated intermediate
        // output column. The column is in use iff the output is
        // held through it.
        if (holder_[o] != kNoRequest && heldChan_[o] == kNoRequest &&
            port_[holder_[o]].layer == d)
            return;
        auto &col = interCol_[o];
        if (!col.active) {
            col.active = true;
            col.mask.clear();
            activeInter_.push_back(o);
        }
        col.mask.set(li);
        ++col.weight;
        return;
    }

    if (spec_.alloc == ChannelAlloc::Priority) {
        // Pool request: mark interest on every channel (s,d,*);
        // phase1 serializes the choice across free channels.
        const std::uint32_t base = chanId(s, d, 0);
        for (std::uint32_t id = base; id < base + chan_; ++id) {
            auto &col = chanCol_[id];
            if (!col.active) {
                col.active = true;
                col.mask.clear();
                activeChan_.push_back(id);
            }
            col.mask.set(li);
        }
        // weight counted once per input on channel 0's column
        ++chanCol_[base].weight;
        return;
    }

    std::uint32_t k = channelFor(i, o);
    if (k == kNoRequest)
        return; // every channel to that layer has failed
    std::uint32_t id = chanId(s, d, k);
    if (chanBusy_[id])
        return; // channel mid-transfer: retry next cycle
    auto &col = chanCol_[id];
    if (!col.active) {
        col.active = true;
        col.mask.clear();
        activeChan_.push_back(id);
    }
    col.mask.set(li);
    ++col.weight;
}

void
HiRiseFabric::collectRequests(std::span<const std::uint32_t> req)
{
    // Compact the requesting inputs out of the dense vector in one
    // SIMD sweep (most entries are kNoRequest below saturation), then
    // bin just those. gatherNonSentinelU32 emits ascending indices,
    // so column fill order — and with it every phase-1 pick — matches
    // the plain scan bit for bit.
    const std::uint32_t n = simd::gatherNonSentinelU32(
        req.data(), spec_.radix, kNoRequest, reqIdxScratch_.data());
    for (std::uint32_t k = 0; k < n; ++k) {
        const std::uint32_t i = reqIdxScratch_[k];
        collectRequest(i, req[i]);
    }
}

void
HiRiseFabric::phase1()
{
    // Intermediate-output columns: plain pick, update deferred to the
    // end-to-end win (back-propagated priority update). Columns pick
    // independently, so list order (vs output order) is immaterial.
    for (std::uint32_t o : activeInter_) {
        auto &col = interCol_[o];
        col.winner = interArb_[o].pick(col.mask);
        col.winnerDst = o;
    }

    if (spec_.alloc != ChannelAlloc::Priority) {
        for (std::uint32_t id : activeChan_) {
            auto &col = chanCol_[id];
            col.winner = chanArb_[id].pick(col.mask);
        }
        return;
    }

    // Priority allocation: for each (s,d) pair walk the channels in
    // order; each free channel picks from the remaining requestors.
    for (std::uint32_t s = 0; s < nlay_; ++s) {
        for (std::uint32_t d = 0; d < nlay_; ++d) {
            if (s == d)
                continue;
            // Pool lives on channel 0's mask.
            auto &pool = chanCol_[chanId(s, d, 0)];
            if (!pool.active)
                continue;
            remaining_.copyFrom(pool.mask);
            std::uint32_t weight = pool.weight;
            for (std::uint32_t k = 0; k < chan_; ++k) {
                std::uint32_t id = chanId(s, d, k);
                if (chanBusy_[id] || chanFailed_[id])
                    continue;
                std::uint32_t w = chanArb_[id].pick(remaining_);
                if (w == arb::MatrixArbiter::kNone)
                    break;
                auto &col = chanCol_[id];
                col.winner = w;
                col.weight = weight;
                remaining_.reset(w);
            }
        }
    }
}

void
HiRiseFabric::phase2()
{
    auto &reqs = subReqs_;
    // Only outputs with a phase-1 winner contend (ascending order, as
    // the sub-blocks are mutually independent within a cycle).
    contendedOut_.forEachSet([&](std::uint32_t o) {
        // Consume this output's winner chain unconditionally — held
        // outputs included — so stale links never survive into the
        // next cycle's chains.
        std::uint32_t chain = outChanHead_[o];
        outChanHead_[o] = kNoRequest;
        if (holder_[o] != kNoRequest)
            return;
        const std::uint32_t d = port_[o].layer;
        filledPorts_.clear();

        // Incoming L2LC ports: walk exactly this cycle's winning
        // channels targeting o (the chain finishArbitrate threaded)
        // instead of scanning every (layer, channel) column. reqs is
        // indexed by sub-block port, so chain order is immaterial to
        // the sub-block arbitration.
        for (std::uint32_t id = chain; id != kNoRequest;
             id = chanNext_[id]) {
            const auto &col = chanCol_[id];
            const auto &ci = chanInfo_[id];
            const std::uint32_t port = ci.subPort;
            auto &r = reqs[port];
            r.valid = true;
            r.primaryInput = ci.srcBase + col.winner;
            r.weight = std::max(1u, col.weight);
            filledPorts_.push_back(port);
        }
        // Local intermediate port.
        const auto &icol = interCol_[o];
        if (icol.winner != arb::MatrixArbiter::kNone) {
            auto &r = reqs[ports_ - 1];
            r.valid = true;
            r.primaryInput = d * ppl_ + icol.winner;
            r.weight = std::max(1u, icol.weight);
            filledPorts_.push_back(ports_ - 1);
        }
        if (filledPorts_.empty())
            return;

        // The sub-block visits only the filled ports.
        std::uint32_t p = subArb_[o]->arbitrateFilled(reqs, filledPorts_);
        sim_assert(p != arb::SubBlockArbiter::kNone,
                   "sub-block with valid requests granted nothing");

        std::uint32_t winner_in = reqs[p].primaryInput;
        holder_[o] = winner_in;
        grant_.set(winner_in);

        if (p + 1 == ports_) {
            // Local path: back-propagate the LRG update to the
            // intermediate-output column.
            heldChan_[o] = kNoRequest;
            interArb_[o].update(port_[winner_in].local);
            ++stats_.grantsLocal;
        } else {
            const std::uint32_t id = subPortChan_[d * ports_ + p];
            heldChan_[o] = id;
            chanBusy_[id] = 1;
            busySince_[id] = arbitrateCalls_;
            chanArb_[id].update(port_[winner_in].local);
            ++stats_.grantsCross;
            ++stats_.chanGrants[id];
        }

        // Sparse reset: subReqs_ stays all-invalid between outputs.
        for (std::uint32_t fp : filledPorts_)
            reqs[fp].valid = false;
    });
}

// Per-call prologue shared by both arbitrate entry points: clear the
// grant scratch, count the call (the utilization denominator and the
// clock that busy channels' open spans read), and lazily reset last
// cycle's touched columns.
void
HiRiseFabric::beginArbitrate()
{
    grant_.clear();
    ++arbitrateCalls_;
    resetScratch();
}

const BitVec &
HiRiseFabric::arbitrate(std::span<const std::uint32_t> req)
{
    sim_assert(req.size() == spec_.radix, "bad request vector");
    beginArbitrate();
    collectRequests(req);
    return finishArbitrate(req);
}

const BitVec &
HiRiseFabric::arbitrateActive(std::span<const std::uint32_t> req,
                              std::span<const std::uint32_t> active)
{
    sim_assert(req.size() == spec_.radix, "bad request vector");
    beginArbitrate();
    // active is ascending, so columns fill in the same order as the
    // dense collectRequests scan — phase-1 picks are bit-identical.
    for (std::uint32_t i : active) {
        sim_assert(i < spec_.radix && req[i] != kNoRequest,
                   "active list entry %u has no request", i);
        collectRequest(i, req[i]);
    }
    return finishArbitrate(req);
}

const BitVec &
HiRiseFabric::finishArbitrate(std::span<const std::uint32_t> req)
{
    // Record each channel winner's destination before phase 2, mark
    // the outputs that have at least one phase-1 winner so phase 2
    // visits only those sub-blocks, and thread each winning channel
    // onto its destination output's intrusive chain so phase 2 walks
    // exactly those channels.
    phase1();
    contendedOut_.clear();
    for (std::uint32_t id : activeChan_) {
        auto &col = chanCol_[id];
        if (col.winner == arb::MatrixArbiter::kNone)
            continue;
        const std::uint32_t in = chanInfo_[id].srcBase + col.winner;
        col.winnerDst = req[in];
        contendedOut_.set(col.winnerDst);
        chanNext_[id] = outChanHead_[col.winnerDst];
        outChanHead_[col.winnerDst] = id;
    }
    for (std::uint32_t o : activeInter_) {
        if (interCol_[o].winner != arb::MatrixArbiter::kNone)
            contendedOut_.set(o);
    }

    const std::uint64_t local0 = stats_.grantsLocal;
    const std::uint64_t cross0 = stats_.grantsCross;
    phase2();
    if (obs::on()) [[unlikely]]
        recordArbitrateObs(grant_, req, heldChan_,
                           stats_.grantsLocal - local0,
                           stats_.grantsCross - cross0);
#ifdef HIRISE_CHECK_ENABLED
    checkInvariants(req);
#endif
    return grant_;
}

#ifdef HIRISE_CHECK_ENABLED
void
HiRiseFabric::checkInvariants(std::span<const std::uint32_t> req) const
{
    auto holder = [this](std::uint32_t o) { return holder_[o]; };
    check::verifyGrantMatching(req, grant_, spec_.radix, holder);
    check::verifyHolderInjective(spec_.radix, holder);

    // holder/heldChan/chanBusy must stay a bijection: every held
    // cross-layer connection pins exactly one busy channel whose
    // endpoints match the connection's layers, and every busy channel
    // is pinned by exactly one held connection.
    std::vector<std::uint32_t> pinned(chanBusy_.size(), kNoRequest);
    for (std::uint32_t o = 0; o < spec_.radix; ++o) {
        std::uint32_t id = heldChan_[o];
        if (holder_[o] == kNoRequest) {
            sim_assert(id == kNoRequest,
                       "idle output %u pins channel %u", o, id);
            continue;
        }
        if (id == kNoRequest) {
            sim_assert(layerOf(holder_[o]) == layerOf(o),
                       "local connection %u->%u crosses layers",
                       holder_[o], o);
            continue;
        }
        sim_assert(id < chanBusy_.size(), "bad held channel id %u", id);
        sim_assert(chanBusy_[id], "held channel %u not busy", id);
        sim_assert(!chanFailed_[id], "failed channel %u is held", id);
        sim_assert(pinned[id] == kNoRequest,
                   "channel %u pinned by outputs %u and %u", id,
                   pinned[id], o);
        pinned[id] = o;
        std::uint32_t s = id / (nlay_ * chan_);
        std::uint32_t d = (id / chan_) % nlay_;
        sim_assert(layerOf(holder_[o]) == s && layerOf(o) == d,
                   "channel %u endpoints do not match connection "
                   "%u->%u",
                   id, holder_[o], o);
    }
    for (std::uint32_t id = 0; id < chanBusy_.size(); ++id) {
        if (!chanBusy_[id])
            continue;
        sim_assert(pinned[id] != kNoRequest,
                   "busy channel %u pinned by no connection", id);
        sim_assert(busySince_[id] <= arbitrateCalls_,
                   "busy channel %u stamped %llu after call %llu", id,
                   static_cast<unsigned long long>(busySince_[id]),
                   static_cast<unsigned long long>(arbitrateCalls_));
    }
    sim_assert(anyFailed_ == anySet(chanFailed_),
               "anyFailed flag out of step with the channel flags");

    // CLRG class counters must stay thermometer-encodable.
    if (spec_.arb == ArbScheme::Clrg) {
        for (const auto &sub : subArb_) {
            auto *clrg =
                dynamic_cast<const arb::ClrgSubArbiter *>(sub.get());
            sim_assert(clrg != nullptr, "CLRG spec without CLRG arbiter");
            check::verifyClassCounterBounds(clrg->counters());
        }
    }
}
#endif

void
HiRiseFabric::advanceIdle(std::uint64_t cycles)
{
    // Count the request-free cycles as calls, so utilization
    // denominators and busy-cycle counts are independent of stepping
    // mode. Channels stay busy across request-free cycles while their
    // connection is still transferring; their open spans read the
    // advanced count.
    arbitrateCalls_ += cycles;
}

void
HiRiseFabric::release(std::uint32_t input, std::uint32_t output)
{
    sim_assert(output < spec_.radix && holder_[output] == input,
               "release of unheld connection %u->%u", input, output);
    holder_[output] = kNoRequest;
    if (heldChan_[output] != kNoRequest) {
        closeBusySpan(heldChan_[output]);
        heldChan_[output] = kNoRequest;
    }
}

void
HiRiseFabric::closeBusySpan(std::uint32_t id)
{
    stats_.chanBusyCycles[id] += arbitrateCalls_ - busySince_[id];
    chanBusy_[id] = 0;
}

bool
HiRiseFabric::outputBusy(std::uint32_t output) const
{
    return holder_[output] != kNoRequest;
}

std::uint32_t
HiRiseFabric::outputHolder(std::uint32_t output) const
{
    return holder_[output];
}

void
HiRiseFabric::save(snap::Writer &w) const
{
    w.vec(holder_);
    w.vec(heldChan_);
    w.vec(chanBusy_);
    w.vec(chanFailed_);
    for (const auto &a : interArb_)
        a.save(w);
    for (const auto &a : chanArb_)
        a.save(w);
    for (const auto &a : subArb_)
        a->save(w);
    w.u64(stats_.grantsLocal);
    w.u64(stats_.grantsCross);
    w.vec(stats_.chanGrants);
    w.vec(stats().chanBusyCycles); // open spans counted in
    w.u64(arbitrateCalls_);
    // Per-cycle scratch (columns, chains, grant_) is rebuilt from
    // scratch each arbitrate() call and needs no saving: resetScratch
    // plus lazy mask clears make a fresh object equivalent.
}

void
HiRiseFabric::load(snap::Reader &r)
{
    r.vec(holder_);
    r.vec(heldChan_);
    r.vec(chanBusy_);
    r.vec(chanFailed_);
    for (auto &a : interArb_)
        a.load(r);
    for (auto &a : chanArb_)
        a.load(r);
    for (auto &a : subArb_)
        a->load(r);
    stats_.grantsLocal = r.u64();
    stats_.grantsCross = r.u64();
    r.vec(stats_.chanGrants);
    r.vec(stats_.chanBusyCycles);
    arbitrateCalls_ = r.u64();
    // The snapshot's counts include every open span, so the spans
    // restart at the restored call count.
    busySince_.assign(chanBusy_.size(), arbitrateCalls_);
    anyFailed_ = anySet(chanFailed_);
}

} // namespace hirise::fabric
