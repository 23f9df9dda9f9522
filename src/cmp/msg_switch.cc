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
    : numVcs_(num_vcs), core_(std::move(fabric)),
      deliver_(std::move(deliver)), ports_(spec.radix),
      vcs_(std::size_t(spec.radix) * num_vcs)
{
    sim_assert(num_vcs >= 1, "a port needs at least one VC");
    sim_assert(core_.radix() == spec.radix,
               "fabric radix does not match the switch");
}

void
MsgSwitch::send(const Message &m)
{
    sim_assert(m.srcTile < core_.radix() && m.dstTile < core_.radix(),
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
    core_.wake(m.srcTile);
}

void
MsgSwitch::step()
{
    // Each waiting port requests the output of the first VC, in
    // round-robin order, whose head's output is free. Ports without a
    // request leave their round-robin pointer untouched.
    core_.arbitrate(
        [&](std::uint32_t i) {
            Port &p = ports_[i];
            std::uint32_t v = p.rr;
            for (std::uint32_t k = 0; k < numVcs_; ++k) {
                const RingBuffer<Message> &q = vc(i, v);
                if (!q.empty() && core_.outputFree(q.front().dstTile)) {
                    p.vc = v;
                    p.rr = v + 1 == numVcs_ ? 0 : v + 1;
                    return q.front().dstTile;
                }
                if (++v == numVcs_)
                    v = 0;
            }
            return fabric::kNoRequest;
        },
        [&](std::uint32_t i, std::uint32_t) {
            Port &p = ports_[i];
            p.flitsLeft = vc(i, p.vc).front().lenFlits();
        });

    // One flit per held connection; the message leaves its VC and is
    // delivered with its last flit.
    core_.transfer([&](std::uint32_t i) {
        Port &p = ports_[i];
        ++flitsDelivered_;
        if (--p.flitsLeft != 0)
            return;
        RingBuffer<Message> &q = vc(i, p.vc);
        Message m = q.front();
        q.pop_front();
        --backlog_;
        core_.release(i, --p.queued != 0);
        ++delivered_;
        deliver_(m);
    });

    ++cycles_;
    backlogAccum_ += static_cast<double>(backlog_);
}

} // namespace hirise::cmp
