#include "noc/graph_noc.hh"

#include "common/logging.hh"

namespace hirise::noc {

GraphNoc::GraphNoc(std::shared_ptr<Topology> topo,
                   std::uint32_t packet_len, std::uint32_t fifo_pkts,
                   std::uint64_t seed)
    : topo_(std::move(topo)), radix_(topo_->radix()),
      conc_(topo_->concentration()), nodes_(topo_->numNodes()),
      packetLen_(packet_len), fifoPkts_(fifo_pkts), rng_(seed)
{
    const std::uint32_t routers = topo_->numRouters();
    routers_.resize(routers);
    for (auto &r : routers_) {
        r.fifo.resize(radix_);
        r.reserved.assign(radix_, 0);
        r.outArb.assign(radix_, arb::MatrixArbiter(radix_));
        r.outHolder.assign(radix_, kNone);
        r.conn.resize(radix_);
        r.waiting.resize(radix_);
        r.connected.resize(radix_);
    }
    source_.resize(nodes_);

    attach_.resize(nodes_);
    for (std::uint32_t n = 0; n < nodes_; ++n)
        attach_[n] = topo_->attach(n);
    route_.resize(std::size_t(routers) * nodes_);
    link_.resize(std::size_t(routers) * radix_);
    wireMm_.assign(std::size_t(routers) * radix_, 0.0f);
    for (std::uint32_t ri = 0; ri < routers; ++ri) {
        for (std::uint32_t n = 0; n < nodes_; ++n) {
            const PortRef &dst = attach_[n];
            route_[std::size_t(ri) * nodes_ + n] =
                dst.router == ri ? dst.port // ejection
                                 : topo_->route(ri, dst.router);
        }
        for (std::uint32_t port = conc_; port < radix_; ++port) {
            link_[portIdx(ri, port)] = topo_->link(ri, port);
            wireMm_[portIdx(ri, port)] =
                static_cast<float>(topo_->linkLengthMm(ri, port));
        }
    }

    want_.assign(radix_, BitVec(radix_));
    wantedOuts_.resize(radix_);
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
}

void
GraphNoc::step()
{
    // 1. Node injection into the attach port's FIFO.
    for (std::uint32_t n = 0; n < nodes_; ++n) {
        if (source_[n].empty())
            continue;
        const PortRef &at = attach_[n];
        Router &r = routers_[at.router];
        if (r.fifo[at.port].size() + r.reserved[at.port] <
            fifoPkts_) {
            enqueue(r, at.port, source_[n].front());
            source_[n].pop_front();
        }
    }

    // 2. Per-router arbitration (one winner per free output). Routers
    //    go in index order: a grant reserves a downstream slot that
    //    later routers' credit checks see.
    for (std::uint32_t ri = 0; ri < routers_.size(); ++ri) {
        Router &r = routers_[ri];
        // Gather requests per output.
        r.waiting.forEachSet([&](std::uint32_t in) {
            std::uint32_t out = routePort(ri, r.fifo[in].front().dstNode);
            if (r.outHolder[out] != kNone)
                return; // output mid-transfer
            if (out >= conc_) {
                // Inter-router hop: need a downstream credit.
                const PortRef &far = link_[portIdx(ri, out)];
                sim_assert(far.valid, "routing into a dead port");
                const Router &nr = routers_[far.router];
                if (nr.fifo[far.port].size() +
                        nr.reserved[far.port] >=
                    fifoPkts_)
                    return;
            }
            want_[out].set(in);
            wantedOuts_.set(out);
        });
        // Resetting the current bit inside forEachSet is safe:
        // iteration walks a copy of each word.
        wantedOuts_.forEachSet([&](std::uint32_t out) {
            wantedOuts_.reset(out);
            BitVec &want = want_[out];
            std::uint32_t w = r.outArb[out].pick(want);
            want.forEachSet([&](std::uint32_t in) { want.reset(in); });
            if (w == arb::MatrixArbiter::kNone)
                return;
            r.outArb[out].update(w);
            r.outHolder[out] = w;
            auto &c = r.conn[w];
            c.justGranted = true;
            c.pkt = r.fifo[w].front();
            r.fifo[w].pop_front();
            r.waiting.reset(w);
            r.connected.set(w);
            c.flitsLeft = c.pkt.lenFlits;
            c.output = out;
            if (out >= conc_) {
                const PortRef &far = link_[portIdx(ri, out)];
                ++routers_[far.router].reserved[far.port];
            }
        });
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
            r.outHolder[c.output] = kNone;
            r.connected.reset(in);
            if (!r.fifo[in].empty())
                r.waiting.set(in);
            if (c.output >= conc_) {
                const PortRef &far = link_[portIdx(ri, c.output)];
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
