/**
 * @file
 * Kilo-core NoC topology from paper section VI-E / Fig 13: a 2D mesh
 * whose routers are 3D Hi-Rise switches (or flat 2D Swizzle-Switches
 * for comparison). Routing is XY dimension-ordered between switches;
 * the 3D switch provides adaptive Z (layer) routing internally, since
 * any input can reach the mesh port of the chosen direction on any
 * layer in a single traversal.
 *
 * Each router of radix N with L layers exposes, per layer, N/L ports:
 * the first N/L - 4 are concentrated local node ports and the last 4
 * are the mesh ports (one per direction, so each direction has L
 * parallel ports, one per layer). Packets advance with virtual
 * cut-through: a switch connection is only granted when the
 * downstream input FIFO has a free packet slot, which together with
 * XY ordering keeps the network deadlock-free.
 */

#ifndef HIRISE_NOC_MESH_HH
#define HIRISE_NOC_MESH_HH

#include <deque>
#include <memory>
#include <vector>

#include "common/random.hh"
#include "common/spec.hh"
#include "common/stats.hh"
#include "fabric/fabric.hh"
#include "net/packet.hh"

namespace hirise::noc {

/** Mesh directions, also the order of per-layer mesh ports. */
enum Direction : std::uint32_t
{
    North = 0,
    East = 1,
    South = 2,
    West = 3,
    NumDirections = 4
};

struct MeshConfig
{
    std::uint32_t width = 4;     //!< switches per row
    std::uint32_t height = 4;    //!< switches per column
    SwitchSpec router;           //!< per-router switch configuration
    std::uint32_t packetLen = 4; //!< flits
    std::uint32_t inputFifoPkts = 4; //!< packet slots per router input
    std::uint64_t seed = 1;

    std::uint32_t layers() const
    {
        return router.topo == hirise::Topology::Flat2D ? 1
                                                       : router.layers;
    }
    std::uint32_t
    portsPerLayer() const
    {
        return router.radix / layers();
    }
    /** Concentrated node ports per layer (per router). */
    std::uint32_t
    localPerLayer() const
    {
        return portsPerLayer() - NumDirections;
    }
    std::uint32_t
    localPerRouter() const
    {
        return localPerLayer() * layers();
    }
    /** Total cores attached to the mesh. */
    std::uint32_t
    totalNodes() const
    {
        return localPerRouter() * width * height;
    }

    void validate() const;
};

/** Global node address <-> (router, layer, slot) mapping helpers. */
struct NodeAddr
{
    std::uint32_t rx, ry;   //!< router coordinates
    std::uint32_t layer;    //!< silicon layer within the router
    std::uint32_t slot;     //!< local port slot within the layer
};

struct MeshResult
{
    double offeredPktsPerCycle = 0.0;
    double acceptedPktsPerCycle = 0.0;
    double avgLatencyCycles = 0.0;
    double avgHops = 0.0;
    std::uint64_t delivered = 0;
};

/**
 * Cycle-level mesh simulator. Traffic is uniform random over all
 * nodes (the standard kilo-core load study); the injection process
 * is open-loop with unbounded source queues.
 */
class MeshNoc
{
  public:
    explicit MeshNoc(const MeshConfig &cfg);

    /** Run warmup + measure cycles at the given injection rate
     *  (packets/node/cycle). */
    MeshResult run(double rate, net::Cycle warmup, net::Cycle measure);

    void step();

    // -- address arithmetic (public for tests) ------------------------
    NodeAddr nodeAddr(std::uint32_t node) const;
    std::uint32_t nodeId(const NodeAddr &a) const;
    /** Router-local port index of a local node. */
    std::uint32_t localPort(const NodeAddr &a) const;
    /** Router-local port index of mesh port (dir, layer). */
    std::uint32_t meshPort(Direction d, std::uint32_t layer) const;
    /** Is this router port a mesh port (returns direction) ? */
    bool isMeshPort(std::uint32_t port, Direction &d,
                    std::uint32_t &layer) const;

    /** XY next-hop direction at router (rx,ry) toward (dx,dy);
     *  returns false when already at the destination router. */
    static bool xyRoute(std::uint32_t rx, std::uint32_t ry,
                        std::uint32_t dx, std::uint32_t dy,
                        Direction &out);

    std::uint32_t numRouters() const { return nRouters_; }

  private:
    struct InFlight
    {
        std::uint32_t dstNode;
        std::uint16_t hops;
        net::Cycle genCycle;
    };

    /** One queued packet at a router input or node source. */
    struct QPkt
    {
        std::uint32_t dstNode;
        std::uint16_t hops;
        net::Cycle genCycle;
    };

    struct Router
    {
        std::unique_ptr<fabric::Fabric> fabric;
        /** Per input port: FIFO + reservation count (VCT credits). */
        std::vector<std::deque<QPkt>> fifo;
        std::vector<std::uint32_t> reserved;
        /** Active connections: input -> remaining flits + context. */
        struct Conn
        {
            bool active = false;
            bool justGranted = false;
            std::uint32_t flitsLeft = 0;
            std::uint32_t output = 0;
            QPkt pkt{};
        };
        std::vector<Conn> conn;
    };

    std::uint32_t routerIdx(std::uint32_t rx, std::uint32_t ry) const
    {
        return ry * cfg_.width + rx;
    }

    /** Downstream (router, input port) fed by this router's mesh
     *  output port; false for edge ports with no neighbour. */
    bool downstream(std::uint32_t router, std::uint32_t out_port,
                    std::uint32_t &n_router,
                    std::uint32_t &n_port) const;

    /** Choose the output port at @p router for a packet to
     *  @p dst_node arriving on @p in_port: local ejection port or an
     *  adaptively layer-selected mesh port. Returns kNoPort if every
     *  candidate is blocked. */
    static constexpr std::uint32_t kNoPort = ~0u;
    std::uint32_t route(std::uint32_t router, std::uint32_t in_port,
                        const QPkt &pkt) const;

    MeshConfig cfg_;
    std::uint32_t nRouters_;
    std::vector<Router> routers_;
    std::vector<std::deque<QPkt>> source_; //!< per node
    Rng rng_;
    // Per-router arbitration scratch, reused across routers and steps.
    std::vector<std::uint32_t> req_;
    std::vector<std::uint32_t> outFor_;

    net::Cycle cycle_ = 0;
    bool measuring_ = false;
    std::uint64_t injected_ = 0;
    std::uint64_t measInjected_ = 0;
    std::uint64_t measDelivered_ = 0;
    RunningStat latency_;
    RunningStat hops_;
};

} // namespace hirise::noc

#endif // HIRISE_NOC_MESH_HH
