#include "noc/mesh.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hirise::noc {

void
MeshConfig::validate() const
{
    router.validate();
    if (width < 2 || height < 2)
        fatal("mesh needs at least 2x2 routers");
    if (router.radix % layers() != 0)
        fatal("router radix %u must divide evenly over %u layers",
              router.radix, layers());
    if (portsPerLayer() <= NumDirections)
        fatal("router needs more than %u ports per layer",
              NumDirections);
    if (inputFifoPkts < 1)
        fatal("input FIFOs need at least one packet slot");
}

MeshNoc::MeshNoc(const MeshConfig &cfg)
    : cfg_(cfg), nRouters_(cfg.width * cfg.height), rng_(cfg.seed)
{
    cfg_.validate();
    routers_.resize(nRouters_);
    for (auto &r : routers_) {
        r.fabric = fabric::makeFabric(cfg_.router);
        r.fifo.resize(cfg_.router.radix);
        r.reserved.assign(cfg_.router.radix, 0);
        r.conn.resize(cfg_.router.radix);
    }
    source_.resize(cfg_.totalNodes());
    req_.resize(cfg_.router.radix);
    outFor_.resize(cfg_.router.radix);
}

NodeAddr
MeshNoc::nodeAddr(std::uint32_t node) const
{
    std::uint32_t per_router = cfg_.localPerRouter();
    std::uint32_t router = node / per_router;
    std::uint32_t within = node % per_router;
    NodeAddr a;
    a.rx = router % cfg_.width;
    a.ry = router / cfg_.width;
    a.layer = within / cfg_.localPerLayer();
    a.slot = within % cfg_.localPerLayer();
    return a;
}

std::uint32_t
MeshNoc::nodeId(const NodeAddr &a) const
{
    std::uint32_t router = a.ry * cfg_.width + a.rx;
    return router * cfg_.localPerRouter() +
           a.layer * cfg_.localPerLayer() + a.slot;
}

std::uint32_t
MeshNoc::localPort(const NodeAddr &a) const
{
    return a.layer * cfg_.portsPerLayer() + a.slot;
}

std::uint32_t
MeshNoc::meshPort(Direction d, std::uint32_t layer) const
{
    return layer * cfg_.portsPerLayer() + cfg_.localPerLayer() + d;
}

bool
MeshNoc::isMeshPort(std::uint32_t port, Direction &d,
                    std::uint32_t &layer) const
{
    std::uint32_t within = port % cfg_.portsPerLayer();
    if (within < cfg_.localPerLayer())
        return false;
    layer = port / cfg_.portsPerLayer();
    d = static_cast<Direction>(within - cfg_.localPerLayer());
    return true;
}

bool
MeshNoc::xyRoute(std::uint32_t rx, std::uint32_t ry, std::uint32_t dx,
                 std::uint32_t dy, Direction &out)
{
    if (rx < dx) {
        out = East;
        return true;
    }
    if (rx > dx) {
        out = West;
        return true;
    }
    if (ry < dy) {
        out = South;
        return true;
    }
    if (ry > dy) {
        out = North;
        return true;
    }
    return false;
}

bool
MeshNoc::downstream(std::uint32_t router, std::uint32_t out_port,
                    std::uint32_t &n_router,
                    std::uint32_t &n_port) const
{
    Direction d;
    std::uint32_t layer;
    if (!isMeshPort(out_port, d, layer))
        return false;
    std::uint32_t rx = router % cfg_.width;
    std::uint32_t ry = router / cfg_.width;
    switch (d) {
      case North:
        if (ry == 0)
            return false;
        --ry;
        break;
      case South:
        if (ry + 1 == cfg_.height)
            return false;
        ++ry;
        break;
      case East:
        if (rx + 1 == cfg_.width)
            return false;
        ++rx;
        break;
      case West:
        if (rx == 0)
            return false;
        --rx;
        break;
      default:
        return false;
    }
    static constexpr Direction kOpposite[NumDirections] = {
        South, West, North, East};
    n_router = routerIdx(rx, ry);
    n_port = meshPort(kOpposite[d], layer);
    return true;
}

std::uint32_t
MeshNoc::route(std::uint32_t router, std::uint32_t /*in_port*/,
               const QPkt &pkt) const
{
    NodeAddr dst = nodeAddr(pkt.dstNode);
    std::uint32_t rx = router % cfg_.width;
    std::uint32_t ry = router / cfg_.width;

    Direction dir;
    if (!xyRoute(rx, ry, dst.rx, dst.ry, dir)) {
        // Destination router: eject on the node's local port. The
        // switch's internal Z routing reaches any layer directly.
        return localPort(dst);
    }

    // Adaptive Z: among the per-layer mesh ports of the required
    // direction, prefer the destination's layer, then the least
    // congested port whose downstream FIFO can accept the packet.
    std::uint32_t best = kNoPort;
    std::uint64_t best_score = ~0ull;
    for (std::uint32_t layer = 0; layer < cfg_.layers(); ++layer) {
        std::uint32_t out = meshPort(dir, layer);
        std::uint32_t n_router, n_port;
        if (!downstream(router, out, n_router, n_port))
            continue;
        const Router &nr = routers_[n_router];
        std::uint64_t occupancy =
            nr.fifo[n_port].size() + nr.reserved[n_port];
        if (occupancy >= cfg_.inputFifoPkts)
            continue; // no credit: virtual cut-through blocks here
        std::uint64_t score = occupancy * 2 +
                              (layer == dst.layer ? 0 : 1);
        if (score < best_score) {
            best_score = score;
            best = out;
        }
    }
    return best;
}

void
MeshNoc::step()
{
    const std::uint32_t radix = cfg_.router.radix;
    const std::uint32_t nodes = cfg_.totalNodes();

    // 1. Move node-injected packets into their local input FIFOs.
    for (std::uint32_t n = 0; n < nodes; ++n) {
        if (source_[n].empty())
            continue;
        NodeAddr a = nodeAddr(n);
        Router &r = routers_[routerIdx(a.rx, a.ry)];
        std::uint32_t port = localPort(a);
        if (r.fifo[port].size() + r.reserved[port] <
            cfg_.inputFifoPkts) {
            r.fifo[port].push_back(source_[n].front());
            source_[n].pop_front();
        }
    }

    // 2. Arbitration at every router.
    for (std::uint32_t ri = 0; ri < nRouters_; ++ri) {
        Router &r = routers_[ri];
        std::vector<std::uint32_t> &req = req_;
        std::vector<std::uint32_t> &out_for = outFor_;
        std::fill(req.begin(), req.end(), fabric::kNoRequest);
        std::fill(out_for.begin(), out_for.end(), kNoPort);
        for (std::uint32_t in = 0; in < radix; ++in) {
            if (r.conn[in].active || r.fifo[in].empty())
                continue;
            std::uint32_t out = route(ri, in, r.fifo[in].front());
            if (out == kNoPort || r.fabric->outputBusy(out))
                continue;
            req[in] = out;
            out_for[in] = out;
        }
        const auto &grant = r.fabric->arbitrate(req);
        for (std::uint32_t in = 0; in < radix; ++in) {
            if (!grant[in])
                continue;
            auto &c = r.conn[in];
            c.active = true;
            c.justGranted = true;
            c.flitsLeft = cfg_.packetLen;
            c.output = out_for[in];
            c.pkt = r.fifo[in].front();
            r.fifo[in].pop_front();
            // Reserve the downstream slot (virtual cut-through).
            std::uint32_t n_router, n_port;
            if (downstream(ri, c.output, n_router, n_port))
                ++routers_[n_router].reserved[n_port];
        }
    }

    // 3. Flit transfer + hand-off.
    for (std::uint32_t ri = 0; ri < nRouters_; ++ri) {
        Router &r = routers_[ri];
        for (std::uint32_t in = 0; in < radix; ++in) {
            auto &c = r.conn[in];
            if (!c.active)
                continue;
            if (c.justGranted) {
                c.justGranted = false;
                continue;
            }
            if (--c.flitsLeft > 0)
                continue;
            r.fabric->release(in, c.output);
            c.active = false;
            std::uint32_t n_router, n_port;
            if (downstream(ri, c.output, n_router, n_port)) {
                Router &nr = routers_[n_router];
                sim_assert(nr.reserved[n_port] > 0,
                           "hand-off without reservation");
                --nr.reserved[n_port];
                QPkt pkt = c.pkt;
                ++pkt.hops;
                nr.fifo[n_port].push_back(pkt);
            } else {
                // Local ejection: the packet reached its node.
                ++measDelivered_;
                if (measuring_) {
                    latency_.add(static_cast<double>(
                        cycle_ - c.pkt.genCycle));
                    hops_.add(static_cast<double>(c.pkt.hops + 1));
                }
            }
        }
    }

    ++cycle_;
}

MeshResult
MeshNoc::run(double rate, net::Cycle warmup, net::Cycle measure)
{
    const std::uint32_t nodes = cfg_.totalNodes();
    std::uint64_t delivered_at_meas = 0;

    auto inject = [&]() {
        for (std::uint32_t n = 0; n < nodes; ++n) {
            if (!rng_.bernoulli(rate))
                continue;
            QPkt p;
            std::uint32_t d = static_cast<std::uint32_t>(
                rng_.below(nodes - 1));
            p.dstNode = d >= n ? d + 1 : d;
            p.hops = 0;
            p.genCycle = cycle_;
            source_[n].push_back(p);
            ++injected_;
            if (measuring_)
                ++measInjected_;
        }
    };

    for (net::Cycle t = 0; t < warmup; ++t) {
        inject();
        step();
    }
    measuring_ = true;
    delivered_at_meas = measDelivered_;
    for (net::Cycle t = 0; t < measure; ++t) {
        inject();
        step();
    }
    measuring_ = false;

    MeshResult r;
    double window = static_cast<double>(measure);
    r.offeredPktsPerCycle =
        static_cast<double>(measInjected_) / window;
    r.acceptedPktsPerCycle =
        static_cast<double>(measDelivered_ - delivered_at_meas) /
        window;
    r.avgLatencyCycles = latency_.mean();
    r.avgHops = hops_.mean();
    r.delivered = latency_.count();
    return r;
}

} // namespace hirise::noc
