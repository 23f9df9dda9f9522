#include "noc/graph_noc.hh"

#include "common/logging.hh"

namespace hirise::noc {

namespace {

SwitchSpec
flatLrgRouter(std::uint32_t radix)
{
    SwitchSpec s;
    s.topo = hirise::Topology::Flat2D;
    s.radix = radix;
    s.arb = ArbScheme::Lrg;
    return s;
}

} // namespace

GraphNoc::GraphNoc(std::shared_ptr<Topology> topo,
                   std::uint32_t packet_len, std::uint32_t fifo_pkts,
                   std::uint64_t seed)
    : GraphNoc(topo, flatLrgRouter(topo->radix()), packet_len, fifo_pkts,
               seed)
{}

GraphNoc::GraphNoc(std::shared_ptr<Topology> topo,
                   const SwitchSpec &router, std::uint32_t packet_len,
                   std::uint32_t fifo_pkts, std::uint64_t seed,
                   const FabricFactory &make_fabric)
    : topo_(std::move(topo)), radix_(topo_->radix()),
      nodes_(topo_->numNodes()), layers_(topo_->layers()),
      portsPerLayer_(topo_->portsPerLayer()), packetLen_(packet_len),
      fifoPkts_(fifo_pkts), rng_(seed)
{
    if (router.radix != radix_)
        fatal("router radix %u does not match the %s topology's %u",
              router.radix, topo_->name().c_str(), radix_);
    if (fifo_pkts < 1)
        fatal("input FIFOs need at least one packet slot");
    const std::uint32_t routers = topo_->numRouters();
    cores_.reserve(routers);
    for (std::uint32_t ri = 0; ri < routers; ++ri)
        cores_.emplace_back(make_fabric(router));
    sim_assert(cores_.back().radix() == radix_,
               "router fabric radix does not match the topology");
    fifo_.resize(std::size_t(routers) * radix_);
    downOcc_.assign(std::size_t(routers) * radix_, 0);
    conn_.resize(std::size_t(routers) * radix_);
    source_.resize(nodes_);
    queued_.resize(nodes_);

    attach_.resize(nodes_);
    nodeLayer_.resize(nodes_);
    for (std::uint32_t n = 0; n < nodes_; ++n) {
        attach_[n] = topo_->attach(n);
        nodeLayer_[n] = attach_[n].port / portsPerLayer_;
    }
    link_.resize(std::size_t(routers) * radix_);
    wireMm_.assign(std::size_t(routers) * radix_, 0.0f);
    for (std::uint32_t ri = 0; ri < routers; ++ri) {
        for (std::uint32_t port = 0; port < radix_; ++port) {
            link_[portIdx(ri, port)] = topo_->link(ri, port);
            if (link_[portIdx(ri, port)].valid)
                wireMm_[portIdx(ri, port)] = static_cast<float>(
                    topo_->linkLengthMm(ri, port));
        }
    }
    // Links are bidirectional port pairs, so an input's link names the
    // upstream output that a pop returns a credit to.
    for (std::uint32_t ri = 0; ri < routers; ++ri) {
        for (std::uint32_t port = 0; port < radix_; ++port) {
            const PortRef &far = link_[portIdx(ri, port)];
            if (!far.valid)
                continue;
            const PortRef &back = link_[portIdx(far.router, far.port)];
            if (!back.valid || back.router != ri || back.port != port)
                fatal("%s link %u:%u is not bidirectional",
                      topo_->name().c_str(), ri, port);
        }
    }
    route_.resize(std::size_t(routers) * nodes_);
    for (std::uint32_t ri = 0; ri < routers; ++ri) {
        for (std::uint32_t n = 0; n < nodes_; ++n) {
            const PortRef &dst = attach_[n];
            std::uint32_t port = dst.port; // ejection
            if (dst.router != ri) {
                port = topo_->route(ri, dst.router);
                for (std::uint32_t l = 0; l < layers_; ++l)
                    sim_assert(
                        link_[portIdx(ri, port + l * portsPerLayer_)]
                            .valid,
                        "routing into a dead port");
            }
            route_[std::size_t(ri) * nodes_ + n] = port;
        }
    }
}

void
GraphNoc::sendTagged(std::uint32_t src_node, std::uint32_t dst_node,
                     std::uint32_t len_flits, std::uint64_t tag)
{
    sim_assert(src_node < nodes_ && dst_node < nodes_ &&
                   src_node != dst_node,
               "bad tagged send %u -> %u", src_node, dst_node);
    QPkt p;
    p.dstNode = dst_node;
    p.hops = 0;
    p.lenFlits = static_cast<std::uint16_t>(len_flits);
    p.genCycle = cycle_;
    p.tag = tag;
    source_[src_node].push_back(p);
    queued_.set(src_node);
}

std::uint32_t
GraphNoc::pickPort(std::uint32_t router, std::uint32_t dst_node) const
{
    std::uint32_t port = route_[std::size_t(router) * nodes_ + dst_node];
    if (!link_[portIdx(router, port)].valid)
        return port; // ejection at the destination router
    // Adaptive Z: skip links without a downstream credit (virtual
    // cut-through blocks there), then take the least occupied, the
    // destination node's layer on equal occupancy, then the lowest.
    std::uint32_t best = fabric::kNoRequest;
    std::uint64_t best_score = ~0ull;
    const std::uint32_t *occ = &downOcc_[portIdx(router, 0)];
    for (std::uint32_t l = 0; l < layers_; ++l, port += portsPerLayer_) {
        const std::uint64_t occupancy = occ[port];
        if (occupancy >= fifoPkts_)
            continue;
        std::uint64_t score = occupancy * 2 + (l != nodeLayer_[dst_node]);
        if (score < best_score) {
            best_score = score;
            best = port;
        }
    }
    return best;
}

void
GraphNoc::step()
{
    // 1. Node injection into the attach port's FIFO.
    queued_.forEachSet([&](std::uint32_t n) {
        const PortRef &at = attach_[n];
        const std::size_t p = portIdx(at.router, at.port);
        if (fifo_[p].size() < fifoPkts_) { // no link feeds a node port
            enqueue(at.router, at.port, source_[n].front());
            source_[n].pop_front();
            if (source_[n].empty())
                queued_.reset(n);
        }
    });

    // 2. Per-router arbitration. Routers go in index order: a grant
    //    reserves a downstream slot that later routers' credit checks
    //    see. A blocked input parks on its route's port on every
    //    layer; a pop returns a credit to the upstream router's output,
    //    which re-arms the inputs parked there (this cycle if that
    //    router comes later, next cycle otherwise, as a re-pick would
    //    see).
    for (std::uint32_t ri = 0; ri < cores_.size(); ++ri) {
        fabric::SwitchCore &core = cores_[ri];
        core.arbitrate(
            [&](std::uint32_t in) {
                const std::uint32_t dst =
                    fifo_[portIdx(ri, in)].front().dstNode;
                const std::uint32_t out = pickPort(ri, dst);
                if (out != fabric::kNoRequest && core.outputFree(out))
                    return out;
                // An ejection is one output; a hop has one per layer.
                std::uint32_t port = route_[std::size_t(ri) * nodes_ + dst];
                const std::uint32_t outs =
                    link_[portIdx(ri, port)].valid ? layers_ : 1;
                for (std::uint32_t l = 0; l < outs;
                     ++l, port += portsPerLayer_)
                    core.parkOn(in, port);
                return fabric::kNoRequest;
            },
            [&](std::uint32_t in, std::uint32_t out) {
                RingBuffer<QPkt> &q = fifo_[portIdx(ri, in)];
                Conn &c = conn_[portIdx(ri, in)];
                c.pkt = q.front();
                q.pop_front();
                const PortRef &up = link_[portIdx(ri, in)];
                if (up.valid) {
                    --downOcc_[portIdx(up.router, up.port)];
                    cores_[up.router].wakeOutput(up.port);
                }
                c.flitsLeft = c.pkt.lenFlits;
                if (link_[portIdx(ri, out)].valid)
                    ++downOcc_[portIdx(ri, out)];
            });
    }

    // 3. Flit transfer and hand-off, in (router, input) order.
    for (std::uint32_t ri = 0; ri < cores_.size(); ++ri) {
        fabric::SwitchCore &core = cores_[ri];
        core.transfer([&](std::uint32_t in) {
            Conn &c = conn_[portIdx(ri, in)];
            if (--c.flitsLeft > 0)
                return;
            const std::uint32_t out = core.heldOutput(in);
            core.release(in, !fifo_[portIdx(ri, in)].empty());
            const PortRef &far = link_[portIdx(ri, out)];
            if (far.valid) {
                // The packet fills the slot its grant reserved: the
                // far FIFO holds fewer than the link's occupancy.
                sim_assert(fifo_[portIdx(far.router, far.port)].size() <
                               downOcc_[portIdx(ri, out)],
                           "hand-off without reservation");
                QPkt pkt = c.pkt;
                ++pkt.hops;
                pkt.linkMm += wireMm_[portIdx(ri, out)];
                enqueue(far.router, far.port, pkt);
            } else {
                ++delivered_;
                if (measuring_) {
                    latency_.add(static_cast<double>(
                        cycle_ - c.pkt.genCycle));
                    hops_.add(static_cast<double>(c.pkt.hops + 1));
                    linkMm_.add(c.pkt.linkMm);
                }
                if (deliverFn_)
                    deliverFn_(c.pkt.tag);
            }
        });
    }

    ++cycle_;
}

GraphResult
GraphNoc::run(double rate, net::Cycle warmup, net::Cycle measure)
{
    const std::uint64_t inject_thr = bernoulliThreshold(rate);
    auto inject = [&]() {
        for (std::uint32_t n = 0; n < nodes_; ++n) {
            if (!rng_.bernoulliThr(inject_thr))
                continue;
            QPkt p;
            std::uint32_t d = static_cast<std::uint32_t>(
                rng_.below(nodes_ - 1));
            p.dstNode = d >= n ? d + 1 : d;
            p.hops = 0;
            p.lenFlits = static_cast<std::uint16_t>(packetLen_);
            p.genCycle = cycle_;
            source_[n].push_back(p);
            queued_.set(n);
            if (measuring_)
                ++measInjected_;
        }
    };

    for (net::Cycle t = 0; t < warmup; ++t) {
        inject();
        step();
    }
    measuring_ = true;
    std::uint64_t base = delivered_;
    for (net::Cycle t = 0; t < measure; ++t) {
        inject();
        step();
    }
    measuring_ = false;

    GraphResult r;
    double window = static_cast<double>(measure);
    r.offeredPktsPerCycle = double(measInjected_) / window;
    r.acceptedPktsPerCycle = double(delivered_ - base) / window;
    r.avgLatencyCycles = latency_.mean();
    r.avgRouterHops = hops_.mean();
    r.avgLinkMm = linkMm_.mean();
    r.delivered = latency_.count();
    return r;
}

} // namespace hirise::noc
