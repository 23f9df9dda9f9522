#include "cmp/msg_switch.hh"

namespace hirise::cmp {

MsgSwitch::MsgSwitch(const SwitchSpec &spec, std::uint32_t num_vcs,
                     DeliverFn deliver)
    : MsgSwitch(spec, num_vcs, std::move(deliver),
                fabric::makeFabric(spec))
{
}

MsgSwitch::MsgSwitch(const SwitchSpec &spec, std::uint32_t num_vcs,
                     DeliverFn deliver,
                     std::unique_ptr<fabric::Fabric> fabric)
    : spec_(spec), numVcs_(num_vcs), fabric_(std::move(fabric)),
      deliver_(std::move(deliver)), ports_(spec.radix),
      vcs_(std::size_t(spec.radix) * num_vcs), eligible_(spec.radix),
      connected_(spec.radix), req_(spec.radix, fabric::kNoRequest),
      cand_(spec.radix, 0)
{
    sim_assert(num_vcs >= 1, "a port needs at least one VC");
    sim_assert(fabric_ && fabric_->radix() == spec.radix,
               "fabric radix does not match the switch");
    active_.reserve(spec.radix);
}

void
MsgSwitch::send(const Message &m)
{
    sim_assert(m.srcTile < spec_.radix && m.dstTile < spec_.radix,
               "message endpoints out of range");
    sim_assert(m.srcTile != m.dstTile,
               "tile-local traffic must not enter the switch");
    // Join the shortest VC queue (stable for equal lengths).
    RingBuffer<Message> *best = &vc(m.srcTile, 0);
    for (std::uint32_t v = 1; v < numVcs_; ++v) {
        RingBuffer<Message> &q = vc(m.srcTile, v);
        if (q.size() < best->size())
            best = &q;
    }
    best->push_back(m);
    ++ports_[m.srcTile].queued;
    ++backlog_;
    if (!connected_[m.srcTile])
        eligible_.set(m.srcTile);
}

void
MsgSwitch::arbitrate()
{
    // Each eligible port requests the output of the first VC, in
    // round-robin order, whose head's output is free. Ports without a
    // request leave their round-robin pointer untouched.
    active_.clear();
    eligible_.forEachSet([&](std::uint32_t i) {
        Port &p = ports_[i];
        std::uint32_t v = p.rr;
        for (std::uint32_t k = 0; k < numVcs_; ++k) {
            const RingBuffer<Message> &q = vc(i, v);
            if (!q.empty() && !fabric_->outputBusy(q.front().dstTile)) {
                cand_[i] = v;
                req_[i] = q.front().dstTile;
                p.rr = v + 1 == numVcs_ ? 0 : v + 1;
                active_.push_back(i);
                return;
            }
            if (++v == numVcs_)
                v = 0;
        }
    });
    if (active_.empty()) {
        // An all-kNoRequest arbitrate() is state-neutral in every
        // fabric; skip it and account the idle call for stats parity.
        fabric_->advanceIdle(1);
        return;
    }

    const BitVec &grant = fabric_->arbitrateActive(req_, active_);
    grant.forEachSet([&](std::uint32_t i) {
        Connection &c = ports_[i].conn;
        c.justGranted = true;
        c.vc = cand_[i];
        c.output = req_[i];
        c.flitsLeft = vc(i, c.vc).front().lenFlits();
        eligible_.reset(i);
        connected_.set(i);
    });
    for (std::uint32_t i : active_)
        req_[i] = fabric::kNoRequest;
}

void
MsgSwitch::transfer()
{
    // Data transfer for connections granted in earlier cycles, in
    // ascending port order. Resetting the current bit inside
    // forEachSet is safe: iteration walks a copy of each word.
    connected_.forEachSet([&](std::uint32_t i) {
        Port &p = ports_[i];
        if (p.conn.justGranted) {
            p.conn.justGranted = false;
            return;
        }
        ++flitsDelivered_;
        if (--p.conn.flitsLeft != 0)
            return;
        RingBuffer<Message> &q = vc(i, p.conn.vc);
        Message m = q.front();
        q.pop_front();
        fabric_->release(i, p.conn.output);
        connected_.reset(i);
        --backlog_;
        if (--p.queued != 0)
            eligible_.set(i);
        ++delivered_;
        deliver_(m);
    });
}

void
MsgSwitch::step()
{
    arbitrate();
    transfer();
    ++cycles_;
    backlogAccum_ += static_cast<double>(backlog_);
}

} // namespace hirise::cmp
