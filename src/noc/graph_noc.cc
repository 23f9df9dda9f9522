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
                   std::uint32_t fifo_pkts, std::uint64_t seed)
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
    routers_.resize(routers);
    for (auto &r : routers_) {
        r.fabric = fabric::makeFabric(router);
        r.fifo.resize(radix_);
        r.reserved.assign(radix_, 0);
        r.conn.resize(radix_);
        r.waiting.resize(radix_);
        r.connected.resize(radix_);
    }
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

    req_.assign(radix_, fabric::kNoRequest);
    active_.reserve(radix_);
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
    std::uint32_t best = kNone;
    std::uint64_t best_score = ~0ull;
    for (std::uint32_t l = 0; l < layers_; ++l, port += portsPerLayer_) {
        const PortRef &far = link_[portIdx(router, port)];
        const Router &nr = routers_[far.router];
        std::uint64_t occupancy =
            nr.fifo[far.port].size() + nr.reserved[far.port];
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
        Router &r = routers_[at.router];
        if (r.fifo[at.port].size() + r.reserved[at.port] <
            fifoPkts_) {
            enqueue(r, at.port, source_[n].front());
            source_[n].pop_front();
            if (source_[n].empty())
                queued_.reset(n);
        }
    });

    // 2. Per-router arbitration. Routers go in index order: a grant
    //    reserves a downstream slot that later routers' credit checks
    //    see. A fabric arbitrates only on cycles with a request, the
    //    event-driven convention of fabric::Fabric::advanceIdle.
    for (std::uint32_t ri = 0; ri < routers_.size(); ++ri) {
        Router &r = routers_[ri];
        r.waiting.forEachSet([&](std::uint32_t in) {
            std::uint32_t out = pickPort(ri, r.fifo[in].front().dstNode);
            if (out == kNone || r.fabric->outputBusy(out))
                return;
            req_[in] = out;
            active_.push_back(in);
        });
        if (active_.empty()) {
            r.fabric->advanceIdle(1);
            continue;
        }
        const BitVec &grant = r.fabric->arbitrateActive(req_, active_);
        for (std::uint32_t in : active_) {
            const std::uint32_t out = req_[in];
            req_[in] = fabric::kNoRequest;
            if (!grant[in])
                continue;
            auto &c = r.conn[in];
            c.justGranted = true;
            c.pkt = r.fifo[in].front();
            r.fifo[in].pop_front();
            r.waiting.reset(in);
            r.connected.set(in);
            c.flitsLeft = c.pkt.lenFlits;
            c.output = out;
            const PortRef &far = link_[portIdx(ri, out)];
            if (far.valid)
                ++routers_[far.router].reserved[far.port];
        }
        active_.clear();
    }

    // 3. Flit transfer and hand-off, in (router, input) order.
    for (std::uint32_t ri = 0; ri < routers_.size(); ++ri) {
        Router &r = routers_[ri];
        r.connected.forEachSet([&](std::uint32_t in) {
            auto &c = r.conn[in];
            if (c.justGranted) {
                c.justGranted = false;
                return;
            }
            if (--c.flitsLeft > 0)
                return;
            r.fabric->release(in, c.output);
            r.connected.reset(in);
            if (!r.fifo[in].empty())
                r.waiting.set(in);
            const PortRef &far = link_[portIdx(ri, c.output)];
            if (far.valid) {
                Router &nr = routers_[far.router];
                sim_assert(nr.reserved[far.port] > 0,
                           "hand-off without reservation");
                --nr.reserved[far.port];
                QPkt pkt = c.pkt;
                ++pkt.hops;
                pkt.linkMm += wireMm_[portIdx(ri, c.output)];
                enqueue(nr, far.port, pkt);
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
    auto inject = [&]() {
        for (std::uint32_t n = 0; n < nodes_; ++n) {
            if (!rng_.bernoulli(rate))
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
