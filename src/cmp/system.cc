#include "cmp/system.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hirise::cmp {

CmpSystem::CmpSystem(const TransportFactory &make_net,
                     const SystemConfig &cfg,
                     std::vector<Benchmark> per_core)
    : cfg_(cfg), rng_(cfg.seed),
      blockThr_(bernoulliThreshold(cfg.blockingFraction)),
      issuing_(cfg.numTiles), l2FreeAt_(cfg.numTiles, 0),
      mcFreeAt_(cfg.numMemCtrls, 0)
{
    net_ = make_net([this](const Message &m) { onMessage(m); });
    sim_assert(per_core.size() == cfg.numTiles,
               "one benchmark per tile required");
    sim_assert(cfg.maxOutstanding >= 1, "a core needs an MSHR window");
    cores_.resize(cfg.numTiles);
    for (std::uint32_t c = 0; c < cfg.numTiles; ++c) {
        cores_[c].bench = per_core[c];
        cores_[c].txns.resize(cfg.mshrsPerCore);
        cores_[c].missThr =
            bernoulliThreshold(per_core[c].mpki / 1000.0);
        cores_[c].l2HitThr = bernoulliThreshold(per_core[c].l2HitRate);
    }
    issuing_.fill();
}

CmpSystem::CmpSystem(const SwitchSpec &switch_spec,
                     const SystemConfig &cfg,
                     std::vector<Benchmark> per_core)
    : CmpSystem(
          [&](Transport::DeliverFn deliver) {
              sim_assert(switch_spec.radix == cfg.numTiles,
                         "switch radix must match tile count");
              return std::make_unique<MsgSwitch>(
                  switch_spec, cfg.switchVcs, std::move(deliver));
          },
          cfg, std::move(per_core))
{
}

std::uint32_t
CmpSystem::pickMcTile()
{
    std::uint32_t idx = static_cast<std::uint32_t>(
        rng_.below(cfg_.numMemCtrls));
    return idx * (cfg_.numTiles / cfg_.numMemCtrls);
}

void
CmpSystem::parkCore(std::uint32_t c)
{
    issuing_.reset(c);
    cores_[c].stallFrom = coreCycle_ + 1;
}

void
CmpSystem::closeStall(Core &core)
{
    // Stall cycles [stallFrom, coreCycle_), of which only the counted
    // ones (from countFrom_ on) are booked.
    const std::uint64_t from = std::max(core.stallFrom, countFrom_);
    if (coreCycle_ > from)
        core.stallCycles += coreCycle_ - from;
    core.stallFrom = coreCycle_;
}

void
CmpSystem::coreCycleOne(std::uint32_t c)
{
    // Only issuing cores are stepped: a blocked or window-full one
    // left issuing_ and books its stall cycles lazily (closeStall).
    Core &core = cores_[c];
    sim_assert(core.blockedOn == kNoTxn &&
                   core.outstanding < cfg_.maxOutstanding,
               "stalled core %u stepped", c);
    for (std::uint32_t slot = 0; slot < cfg_.issueWidth; ++slot) {
        if (core.outstanding >= cfg_.maxOutstanding) {
            if (counting_)
                ++core.stallCycles;
            parkCore(c);
            return; // window full: no further retire this cycle
        }
        if (counting_)
            ++core.retired;
        if (!rng_.bernoulliThr(core.missThr))
            continue;

        // L1 miss: allocate a transaction (MSHR slot).
        std::uint32_t id = kNoTxn;
        for (std::uint32_t t = 0; t < core.txns.size(); ++t) {
            if (!core.txns[t].inUse) {
                id = t;
                break;
            }
        }
        sim_assert(id != kNoTxn, "outstanding < MSHRs but none free");
        Txn &txn = core.txns[id];
        txn.inUse = true;
        txn.blocking = rng_.bernoulliThr(blockThr_);
        txn.l2Hit = rng_.bernoulliThr(core.l2HitThr);
        txn.startCoreCycle = coreCycle_;
        ++core.outstanding;
        if (counting_)
            ++core.misses;

        Message m;
        m.type = MsgType::L2Request;
        m.requesterTile = c;
        m.txnId = id;
        m.blocking = txn.blocking;
        m.l2Hit = txn.l2Hit;
        m.homeTile = static_cast<std::uint32_t>(
            rng_.below(cfg_.numTiles));
        m.srcTile = c;
        m.dstTile = m.homeTile;
        if (m.homeTile == c)
            l2Access(m); // bank co-located with the requester
        else
            net_->send(m);

        if (txn.blocking) {
            core.blockedOn = id;
            parkCore(c);
            return; // demand load: the core waits for the data
        }
    }
    // A window filled by the last slot stalls from the next cycle.
    if (core.outstanding >= cfg_.maxOutstanding)
        parkCore(c);
}

void
CmpSystem::stepCores()
{
    // Ascending, as every core was stepped before: the shared RNG
    // sees the same draw order. Completions (finishTxn) never run
    // inside this walk, so no core is re-armed during it.
    issuing_.forEachSet([this](std::uint32_t c) { coreCycleOne(c); });
}

void
CmpSystem::pushEvent(std::uint64_t core_cycle, Event::Kind kind,
                     const Message &m)
{
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(eventMsgs_.size());
        eventMsgs_.push_back(m);
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        eventMsgs_[slot] = m;
    }
    events_.push({core_cycle, slot, kind});
}

void
CmpSystem::l2Access(const Message &m)
{
    std::uint32_t tile = m.homeTile;
    std::uint64_t start = std::max(l2FreeAt_[tile], coreCycle_);
    std::uint64_t done = start + cfg_.l2AccessCycles;
    l2FreeAt_[tile] = done;
    pushEvent(done, Event::Kind::L2Done, m);
}

void
CmpSystem::l2Done(const Message &m)
{
    if (m.l2Hit) {
        l2Respond(m);
        return;
    }
    // L2 miss: go to a memory controller.
    Message req = m;
    req.type = MsgType::MemRequest;
    req.srcTile = m.homeTile;
    req.dstTile = pickMcTile();
    if (req.dstTile == req.srcTile)
        memAccess(req);
    else
        net_->send(req);
}

void
CmpSystem::memAccess(const Message &m)
{
    std::uint32_t mc_idx =
        m.dstTile / (cfg_.numTiles / cfg_.numMemCtrls);
    double cycles_per_ns = cfg_.coreFreqGhz;
    auto service = static_cast<std::uint64_t>(
        cfg_.memServiceNs * cycles_per_ns);
    auto latency = static_cast<std::uint64_t>(
        cfg_.memLatencyNs * cycles_per_ns);
    std::uint64_t start = std::max(mcFreeAt_[mc_idx], coreCycle_);
    mcFreeAt_[mc_idx] = start + service;
    pushEvent(start + latency, Event::Kind::MemDone, m);
}

void
CmpSystem::memDone(const Message &m)
{
    // DRAM data arrives at the MC; ship it back to the home L2 bank.
    if (m.dstTile == m.homeTile) {
        l2Respond(m);
        return;
    }
    Message resp = m;
    resp.type = MsgType::MemResponse;
    resp.srcTile = m.dstTile; // the MC tile
    resp.dstTile = m.homeTile;
    net_->send(resp);
}

void
CmpSystem::l2Respond(const Message &m)
{
    // Data is at the home bank; return it to the requesting core.
    if (m.homeTile == m.requesterTile) {
        finishTxn(m);
        return;
    }
    Message resp = m;
    resp.type = MsgType::L2Response;
    resp.srcTile = m.homeTile;
    resp.dstTile = m.requesterTile;
    net_->send(resp);
}

void
CmpSystem::finishTxn(const Message &m)
{
    Core &core = cores_[m.requesterTile];
    Txn &txn = core.txns[m.txnId];
    sim_assert(txn.inUse, "completion for idle transaction");
    txn.inUse = false;
    sim_assert(core.outstanding > 0, "outstanding underflow");
    --core.outstanding;
    if (core.blockedOn == m.txnId)
        core.blockedOn = kNoTxn;
    if (counting_) {
        missLatAccumCycles_ += coreCycle_ - txn.startCoreCycle;
        ++missLatCount_;
    }
    // Completions run between core steps (event dispatch, transport
    // steps), so the core's next step is at coreCycle_: it stalled
    // up to there.
    if (!issuing_[m.requesterTile] && core.blockedOn == kNoTxn &&
        core.outstanding < cfg_.maxOutstanding) {
        closeStall(core);
        issuing_.set(m.requesterTile);
    }
}

void
CmpSystem::onMessage(const Message &m)
{
    switch (m.type) {
      case MsgType::L2Request:
        l2Access(m);
        break;
      case MsgType::MemRequest:
        memAccess(m);
        break;
      case MsgType::MemResponse:
        l2Respond(m);
        break;
      case MsgType::L2Response:
        finishTxn(m);
        break;
    }
}

void
CmpSystem::dispatchEvents()
{
    while (!events_.empty() &&
           events_.top().coreCycle <= coreCycle_) {
        const Event e = events_.top();
        events_.pop();
        // Copied out: the handler may push events into the slab.
        const Message m = eventMsgs_[e.slot];
        freeSlots_.push_back(e.slot);
        if (e.kind == Event::Kind::L2Done)
            l2Done(m);
        else
            memDone(m);
    }
}

SystemResult
CmpSystem::run(std::uint64_t warmup, std::uint64_t core_cycles)
{
    double core_period_ps = 1000.0 / cfg_.coreFreqGhz;
    double switch_period_ps = 1000.0 / cfg_.switchFreqGhz;
    double t_core = 0.0, t_switch = 0.0;

    std::uint64_t end = warmup + core_cycles;
    std::uint64_t msg_base = 0;
    while (coreCycle_ < end) {
        if (coreCycle_ == warmup && !counting_) {
            counting_ = true;
            countFrom_ = coreCycle_;
            msg_base = net_->messagesDelivered();
        }
        if (t_core <= t_switch) {
            dispatchEvents();
            stepCores();
            ++coreCycle_;
            t_core += core_period_ps;
        } else {
            net_->step();
            t_switch += switch_period_ps;
        }
    }

    // Book the stall cycles of cores still stalled at the end.
    for (std::uint32_t c = 0; c < cfg_.numTiles; ++c)
        if (!issuing_[c])
            closeStall(cores_[c]);

    SystemResult r;
    r.cores.reserve(cores_.size());
    double cycles = static_cast<double>(core_cycles);
    for (const auto &c : cores_) {
        r.cores.push_back({c.retired, c.misses, c.stallCycles});
        r.totalIpc += static_cast<double>(c.retired) / cycles;
    }
    r.avgMissLatencyNs =
        missLatCount_
            ? (static_cast<double>(missLatAccumCycles_) /
               missLatCount_) /
                  cfg_.coreFreqGhz
            : 0.0;
    r.networkMessages = net_->messagesDelivered() - msg_base;
    return r;
}

} // namespace hirise::cmp
