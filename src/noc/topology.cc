#include "noc/topology.hh"

#include "common/logging.hh"

namespace hirise::noc {

// ---------------------------------------------------------------------
// LowRadixMesh
// ---------------------------------------------------------------------

LowRadixMesh::LowRadixMesh(std::uint32_t width, std::uint32_t height,
                           std::uint32_t local_per_layer,
                           std::uint32_t layers, double tile_mm)
    : width_(width), height_(height), local_(local_per_layer),
      layers_(layers), tileMm_(tile_mm)
{
    if (width < 2 || height < 2)
        fatal("mesh needs at least 2x2 routers");
    if (local_per_layer < 1 || layers < 1)
        fatal("mesh routers need a node port on each of >= 1 layers");
}

std::shared_ptr<LowRadixMesh>
LowRadixMesh::ofRouters(std::uint32_t width, std::uint32_t height,
                        const SwitchSpec &router, double tile_mm)
{
    router.validate();
    const std::uint32_t layers =
        router.topo == hirise::Topology::Flat2D ? 1 : router.layers;
    if (router.radix % layers != 0)
        fatal("router radix %u must divide evenly over %u layers",
              router.radix, layers);
    if (router.radix / layers <= NumDirections)
        fatal("router needs more than %u ports per layer",
              NumDirections);
    return std::make_shared<LowRadixMesh>(
        width, height, router.radix / layers - NumDirections, layers,
        tile_mm);
}

PortRef
LowRadixMesh::link(std::uint32_t router, std::uint32_t port) const
{
    PortRef out;
    const std::uint32_t layer = port / portsPerLayer();
    const std::uint32_t within = port % portsPerLayer();
    if (within < local_)
        return out; // node port
    const auto d = static_cast<Direction>(within - local_);
    std::uint32_t x = router % width_, y = router / width_;
    switch (d) {
      case North:
        if (y == 0)
            return out;
        --y;
        break;
      case East:
        if (x + 1 == width_)
            return out;
        ++x;
        break;
      case South:
        if (y + 1 == height_)
            return out;
        ++y;
        break;
      case West:
        if (x == 0)
            return out;
        --x;
        break;
      default:
        return out;
    }
    static constexpr Direction kOpp[NumDirections] = {South, West, North,
                                                      East};
    out.router = y * width_ + x;
    out.port = meshPort(kOpp[d], layer);
    out.valid = true;
    return out;
}

bool
LowRadixMesh::xyRoute(std::uint32_t rx, std::uint32_t ry,
                      std::uint32_t dx, std::uint32_t dy,
                      Direction &out)
{
    if (rx != dx)
        out = rx < dx ? East : West;
    else if (ry != dy)
        out = ry < dy ? South : North;
    else
        return false;
    return true;
}

std::uint32_t
LowRadixMesh::route(std::uint32_t router,
                    std::uint32_t dst_router) const
{
    Direction d;
    bool hop = xyRoute(router % width_, router / width_,
                       dst_router % width_, dst_router / width_, d);
    sim_assert(hop, "route called at destination router");
    return meshPort(d, 0);
}

// ---------------------------------------------------------------------
// FlattenedButterfly
// ---------------------------------------------------------------------

FlattenedButterfly::FlattenedButterfly(std::uint32_t rows,
                                       std::uint32_t cols,
                                       std::uint32_t concentration,
                                       double tile_mm)
    : rows_(rows), cols_(cols), conc_(concentration), tileMm_(tile_mm)
{
    sim_assert(rows >= 2 && cols >= 2 && concentration >= 1,
               "bad flattened-butterfly shape");
}

std::uint32_t
FlattenedButterfly::rowPort(std::uint32_t router,
                            std::uint32_t dst_col) const
{
    std::uint32_t col = router % cols_;
    sim_assert(dst_col != col, "no self row port");
    std::uint32_t rank = dst_col < col ? dst_col : dst_col - 1;
    return conc_ + rank;
}

std::uint32_t
FlattenedButterfly::colPort(std::uint32_t router,
                            std::uint32_t dst_row) const
{
    std::uint32_t row = router / cols_;
    sim_assert(dst_row != row, "no self column port");
    std::uint32_t rank = dst_row < row ? dst_row : dst_row - 1;
    return conc_ + (cols_ - 1) + rank;
}

PortRef
FlattenedButterfly::link(std::uint32_t router,
                         std::uint32_t port) const
{
    PortRef out;
    if (port < conc_)
        return out;
    std::uint32_t row = router / cols_, col = router % cols_;
    std::uint32_t d = port - conc_;
    if (d < cols_ - 1) {
        // Row link to another column.
        std::uint32_t dst_col = d < col ? d : d + 1;
        out.router = row * cols_ + dst_col;
        out.port = rowPort(out.router, col);
    } else {
        std::uint32_t r = d - (cols_ - 1);
        if (r >= rows_ - 1)
            return out;
        std::uint32_t dst_row = r < row ? r : r + 1;
        out.router = dst_row * cols_ + col;
        out.port = colPort(out.router, row);
    }
    out.valid = true;
    return out;
}

std::uint32_t
FlattenedButterfly::route(std::uint32_t router,
                          std::uint32_t dst_router) const
{
    std::uint32_t col = router % cols_;
    std::uint32_t dst_row = dst_router / cols_;
    std::uint32_t dst_col = dst_router % cols_;
    // Row dimension first, then column: at most two hops.
    if (dst_col != col)
        return rowPort(router, dst_col);
    std::uint32_t row = router / cols_;
    sim_assert(dst_row != row, "route called at destination router");
    return colPort(router, dst_row);
}

double
FlattenedButterfly::linkLengthMm(std::uint32_t router,
                                 std::uint32_t port) const
{
    PortRef far = link(router, port);
    if (!far.valid)
        return 0.0;
    std::uint32_t row = router / cols_, col = router % cols_;
    std::uint32_t frow = far.router / cols_, fcol = far.router % cols_;
    std::uint32_t span = frow > row ? frow - row : row - frow;
    span += fcol > col ? fcol - col : col - fcol;
    return span * tileMm_;
}

} // namespace hirise::noc
