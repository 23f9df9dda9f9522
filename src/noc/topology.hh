/**
 * @file
 * Comparison topologies for the paper's discussion section (VI-E):
 * a 2D mesh of low-radix routers and a flattened butterfly, the two
 * networks the Swizzle-Switch line of work (and therefore Hi-Rise)
 * is measured against, and the kilo-core mesh of Hi-Rise switches.
 * All are deterministic-routing, router-graph topologies consumed by
 * GraphNoc.
 */

#ifndef HIRISE_NOC_TOPOLOGY_HH
#define HIRISE_NOC_TOPOLOGY_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/spec.hh"

namespace hirise::noc {

/** An inter-router or router-node connection endpoint. */
struct PortRef
{
    std::uint32_t router = 0;
    std::uint32_t port = 0;
    bool valid = false;
};

/**
 * A router-graph topology with deterministic routing. A router's
 * ports split into layers() equal blocks, one per silicon layer of a
 * 3D router (a single block for 2D routers); each block starts with
 * its node (injection/ejection) ports and ends with its inter-router
 * ports. Block l repeats block 0's links one layer up, so every
 * inter-router hop has layers() parallel ports.
 */
class Topology
{
  public:
    virtual ~Topology() = default;

    virtual std::string name() const = 0;
    virtual std::uint32_t numRouters() const = 0;
    /** Ports per router (node ports + inter-router ports). */
    virtual std::uint32_t radix() const = 0;
    /** Nodes per router, over all layers. */
    virtual std::uint32_t concentration() const = 0;
    /** Port blocks per router (parallel links per hop). */
    virtual std::uint32_t layers() const { return 1; }

    std::uint32_t
    numNodes() const
    {
        return numRouters() * concentration();
    }

    std::uint32_t portsPerLayer() const { return radix() / layers(); }

    /** Router + port a node attaches to: node ids run router by
     *  router, and within a router layer by layer. */
    PortRef
    attach(std::uint32_t node) const
    {
        const std::uint32_t per_layer = concentration() / layers();
        const std::uint32_t within = node % concentration();
        PortRef p;
        p.router = node / concentration();
        p.port = within / per_layer * portsPerLayer() + within % per_layer;
        p.valid = true;
        return p;
    }

    /** The far end of an inter-router port; invalid for node ports
     *  or unused edge ports. */
    virtual PortRef link(std::uint32_t router,
                         std::uint32_t port) const = 0;

    /** Deterministic routing: the layer-0 output port at @p router
     *  for a packet headed to @p dst_router (the caller handles
     *  dst_router == router by ejecting at the node's port). */
    virtual std::uint32_t route(std::uint32_t router,
                                std::uint32_t dst_router) const = 0;

    /** Physical length (mm) of the wire behind an inter-router
     *  port, for the energy model. */
    virtual double linkLengthMm(std::uint32_t router,
                                std::uint32_t port) const = 0;
};

/**
 * width x height mesh with XY dimension-ordered routing. Each of a
 * router's layers has the port block [nodes..., N, E, S, W], so a
 * single-layer mesh of (concentration + 4)-port routers is the
 * classic low-radix baseline the paper's introduction argues does
 * not scale, and a mesh of multi-layer routers is the kilo-core
 * network of paper section VI-E (Fig 13), whose 3D routers reach the
 * mesh port of any layer in one traversal.
 */
class LowRadixMesh : public Topology
{
  public:
    /** Mesh directions, the order of each layer's mesh ports. */
    enum Direction : std::uint32_t
    {
        North = 0,
        East = 1,
        South = 2,
        West = 3,
        NumDirections = 4
    };

    /**
     * @param width, height    routers per row / column
     * @param local_per_layer  node ports per router layer
     * @param layers           port blocks (silicon layers) per router
     * @param tile_mm          router-to-router hop length (mm)
     */
    LowRadixMesh(std::uint32_t width, std::uint32_t height,
                 std::uint32_t local_per_layer, std::uint32_t layers,
                 double tile_mm);

    /** k x k single-layer mesh, @p concentration nodes per router. */
    LowRadixMesh(std::uint32_t k, std::uint32_t concentration,
                 double tile_mm)
        : LowRadixMesh(k, k, concentration, 1, tile_mm)
    {}

    /** A mesh whose routers are @p router switches: the radix splits
     *  evenly over the switch's layers (one for a flat 2D switch),
     *  and each layer keeps four ports for the mesh links. */
    static std::shared_ptr<LowRadixMesh>
    ofRouters(std::uint32_t width, std::uint32_t height,
              const SwitchSpec &router, double tile_mm = 1.0);

    std::string name() const override { return "mesh"; }
    std::uint32_t numRouters() const override { return width_ * height_; }
    std::uint32_t
    radix() const override
    {
        return layers_ * (local_ + NumDirections);
    }
    std::uint32_t
    concentration() const override
    {
        return layers_ * local_;
    }
    std::uint32_t layers() const override { return layers_; }
    PortRef link(std::uint32_t router,
                 std::uint32_t port) const override;
    std::uint32_t route(std::uint32_t router,
                        std::uint32_t dst_router) const override;
    double
    linkLengthMm(std::uint32_t, std::uint32_t) const override
    {
        return tileMm_;
    }

    /** Router port of mesh direction @p d on layer @p layer. */
    std::uint32_t
    meshPort(Direction d, std::uint32_t layer) const
    {
        return layer * portsPerLayer() + local_ + d;
    }

    /** XY next-hop direction at router (rx,ry) toward (dx,dy);
     *  false when already at the destination router. */
    static bool xyRoute(std::uint32_t rx, std::uint32_t ry,
                        std::uint32_t dx, std::uint32_t dy,
                        Direction &out);

  private:
    std::uint32_t width_, height_, local_, layers_;
    double tileMm_;
};

/**
 * Flattened butterfly (Kim et al. [20]): routers on an r x c grid,
 * each directly linked to every other router in its row and column;
 * routing takes at most one row hop plus one column hop.
 */
class FlattenedButterfly : public Topology
{
  public:
    FlattenedButterfly(std::uint32_t rows, std::uint32_t cols,
                       std::uint32_t concentration, double tile_mm);

    std::string name() const override { return "flattened-butterfly"; }
    std::uint32_t numRouters() const override { return rows_ * cols_; }
    std::uint32_t
    radix() const override
    {
        return conc_ + (rows_ - 1) + (cols_ - 1);
    }
    std::uint32_t concentration() const override { return conc_; }
    PortRef link(std::uint32_t router,
                 std::uint32_t port) const override;
    std::uint32_t route(std::uint32_t router,
                        std::uint32_t dst_router) const override;
    double linkLengthMm(std::uint32_t router,
                        std::uint32_t port) const override;

  private:
    /** Row-direction ports come first after the node ports, ordered
     *  by ascending destination column (skipping self); then the
     *  column-direction ports by ascending destination row. */
    std::uint32_t rowPort(std::uint32_t router,
                          std::uint32_t dst_col) const;
    std::uint32_t colPort(std::uint32_t router,
                          std::uint32_t dst_row) const;

    std::uint32_t rows_, cols_, conc_;
    double tileMm_;
};

} // namespace hirise::noc

#endif // HIRISE_NOC_TOPOLOGY_HH
