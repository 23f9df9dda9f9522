#include "cmp/graph_transport.hh"

#include "common/logging.hh"

namespace hirise::cmp {

GraphTransport::GraphTransport(std::shared_ptr<noc::Topology> topo,
                               DeliverFn deliver,
                               std::uint32_t fifo_pkts,
                               std::uint64_t seed)
    : net_(std::move(topo), 4, fifo_pkts, seed),
      deliver_(std::move(deliver))
{
    net_.setDeliverFn([this](std::uint64_t tag) {
        sim_assert(tag < inFlight_.size(), "unknown delivery tag");
        Message m = inFlight_[tag];
        freeSlots_.push_back(static_cast<std::uint32_t>(tag));
        ++delivered_;
        deliver_(m);
    });
}

void
GraphTransport::send(const Message &m)
{
    std::uint32_t tag;
    if (freeSlots_.empty()) {
        tag = static_cast<std::uint32_t>(inFlight_.size());
        inFlight_.push_back(m);
    } else {
        tag = freeSlots_.back();
        freeSlots_.pop_back();
        inFlight_[tag] = m;
    }
    net_.sendTagged(m.srcTile, m.dstTile, m.lenFlits(), tag);
}

void
GraphTransport::step()
{
    net_.step();
}

} // namespace hirise::cmp
