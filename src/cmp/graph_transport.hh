/**
 * @file
 * Routed-topology transport for the CMP system: carries tile-to-tile
 * Messages over a noc::Topology (low-radix mesh or flattened
 * butterfly) via GraphNoc, so application workloads can be run on the
 * discussion-section baselines (paper VI-E).
 */

#ifndef HIRISE_CMP_GRAPH_TRANSPORT_HH
#define HIRISE_CMP_GRAPH_TRANSPORT_HH

#include <vector>

#include "cmp/transport.hh"
#include "noc/graph_noc.hh"

namespace hirise::cmp {

class GraphTransport : public Transport
{
  public:
    GraphTransport(std::shared_ptr<noc::Topology> topo,
                   DeliverFn deliver, std::uint32_t fifo_pkts = 4,
                   std::uint64_t seed = 1);

    void send(const Message &m) override;
    void step() override;
    std::uint64_t
    messagesDelivered() const override
    {
        return delivered_;
    }

  private:
    noc::GraphNoc net_;
    DeliverFn deliver_;
    /** In-flight messages; a packet's tag is its slot index. Freed
     *  slots are reused, so the vector stops growing at the peak
     *  number of messages in flight. */
    std::vector<Message> inFlight_;
    std::vector<std::uint32_t> freeSlots_;
    std::uint64_t delivered_ = 0;
};

} // namespace hirise::cmp

#endif // HIRISE_CMP_GRAPH_TRANSPORT_HH
