/**
 * @file
 * The one cycle-level NoC engine: every router-graph network in this
 * repository (the low-radix mesh and flattened-butterfly baselines of
 * the paper's discussion section, and the kilo-core mesh of Hi-Rise
 * switches of section VI-E) steps here. Each router is an
 * input-queued fabric::Fabric — flat LRG crossbars by default, or the
 * switch a SwitchSpec names — stepped by its own fabric::SwitchCore,
 * so the connection-held timing is the rest of this repository's: one
 * arbitration cycle, then one flit per cycle, with virtual cut-through
 * hand-off between routers. A grant is only requested when the
 * downstream input FIFO has a free packet slot, which with
 * dimension-ordered routing keeps the network deadlock-free.
 *
 * Where a hop has parallel links (one per layer of a 3D router), the
 * packet takes adaptive Z routing: among the links with a downstream
 * credit, the least occupied one, preferring the destination node's
 * layer and then the lowest layer.
 *
 * The topology's routing, links, node attachment and wire lengths are
 * tabulated at construction, so stepping makes no virtual Topology
 * call. Each router's core tracks its waiting and connected inputs
 * and free outputs, and a bitset of nodes with a queued packet lets a
 * step skip idle nodes; FIFOs are ring buffers, so a step does not
 * allocate.
 */

#ifndef HIRISE_NOC_GRAPH_NOC_HH
#define HIRISE_NOC_GRAPH_NOC_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/bitvec.hh"
#include "common/random.hh"
#include "common/ring_buffer.hh"
#include "common/spec.hh"
#include "common/stats.hh"
#include "fabric/switch_core.hh"
#include "net/packet.hh"
#include "noc/topology.hh"

namespace hirise::noc {

struct GraphResult
{
    double offeredPktsPerCycle = 0.0;
    double acceptedPktsPerCycle = 0.0;
    double avgLatencyCycles = 0.0;
    double avgRouterHops = 0.0; //!< routers traversed per packet
    double avgLinkMm = 0.0;     //!< inter-router wire traversed/packet
    std::uint64_t delivered = 0;
};

class GraphNoc
{
  public:
    /** Builds one router's fabric from the router spec. */
    using FabricFactory =
        std::function<std::unique_ptr<fabric::Fabric>(const SwitchSpec &)>;

    /** Routers are @p router switches of the topology's radix.
     *  @p make_fabric is a test seam (e.g. lockstep oracle fabrics);
     *  by default each router gets fabric::makeFabric(router). */
    GraphNoc(std::shared_ptr<Topology> topo, const SwitchSpec &router,
             std::uint32_t packet_len = 4, std::uint32_t fifo_pkts = 4,
             std::uint64_t seed = 1,
             const FabricFactory &make_fabric = fabric::makeFabric);

    /** Routers are flat LRG crossbars of the topology's radix. */
    GraphNoc(std::shared_ptr<Topology> topo,
             std::uint32_t packet_len = 4,
             std::uint32_t fifo_pkts = 4, std::uint64_t seed = 1);

    /** Uniform-random open-loop run. */
    GraphResult run(double rate, net::Cycle warmup,
                    net::Cycle measure);

    void step();

    const Topology &topology() const { return *topo_; }

    // -- closed-loop API (CMP transport) ------------------------------
    /** Deliver callback for tagged packets ejected at their node. */
    void
    setDeliverFn(std::function<void(std::uint64_t)> fn)
    {
        deliverFn_ = std::move(fn);
    }

    /** Enqueue a tagged packet of explicit length at a source node;
     *  the tag is handed to the deliver callback at ejection. */
    void sendTagged(std::uint32_t src_node, std::uint32_t dst_node,
                    std::uint32_t len_flits, std::uint64_t tag);

    std::uint64_t packetsDelivered() const { return delivered_; }

  private:
    struct QPkt
    {
        std::uint32_t dstNode;
        std::uint16_t hops;
        std::uint16_t lenFlits;
        float linkMm = 0.0f; //!< wire length accumulated so far
        net::Cycle genCycle;
        std::uint64_t tag = 0;
    };

    struct Conn
    {
        std::uint32_t flitsLeft = 0;
        QPkt pkt{};
    };

    /** Append @p pkt to input @p port of @p router. */
    void
    enqueue(std::uint32_t router, std::uint32_t port, const QPkt &pkt)
    {
        fifo_[portIdx(router, port)].push_back(pkt);
        cores_[router].wake(port);
    }

    /** Output port at @p router for a packet to @p dst_node: the
     *  node's ejection port at its own router, else the adaptive-Z
     *  choice among the hop's parallel links, or kNoRequest when no link
     *  has a downstream credit. */
    std::uint32_t pickPort(std::uint32_t router,
                           std::uint32_t dst_node) const;
    /** Table index of (router, port). */
    std::size_t
    portIdx(std::uint32_t router, std::uint32_t port) const
    {
        return std::size_t(router) * radix_ + port;
    }

    std::shared_ptr<Topology> topo_;
    std::uint32_t radix_, nodes_;
    std::uint32_t layers_, portsPerLayer_;
    std::uint32_t packetLen_;
    std::uint32_t fifoPkts_;
    std::vector<fabric::SwitchCore> cores_; //!< per router
    std::vector<RingBuffer<QPkt>> fifo_;    //!< [portIdx], input FIFO
    std::vector<std::uint32_t> reserved_;   //!< [portIdx], slots promised
    std::vector<Conn> conn_;                //!< [portIdx], held packet
    std::vector<RingBuffer<QPkt>> source_; //!< per node
    BitVec queued_; //!< nodes with a non-empty source queue

    // Topology tables, filled at construction.
    std::vector<std::uint32_t> route_; //!< [router * nodes + dst node]
    std::vector<PortRef> link_;        //!< [portIdx], far end
    std::vector<float> wireMm_;        //!< [portIdx], wire length
    std::vector<PortRef> attach_;      //!< [node]
    std::vector<std::uint32_t> nodeLayer_; //!< [node]

    std::function<void(std::uint64_t)> deliverFn_;
    Rng rng_;

    net::Cycle cycle_ = 0;
    bool measuring_ = false;
    std::uint64_t measInjected_ = 0;
    std::uint64_t delivered_ = 0;
    RunningStat latency_;
    RunningStat hops_;
    RunningStat linkMm_;
};

} // namespace hirise::noc

#endif // HIRISE_NOC_GRAPH_NOC_HH
