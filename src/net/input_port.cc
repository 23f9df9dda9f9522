#include "net/input_port.hh"

#include "common/logging.hh"

namespace hirise::net {

void
VirtualChannel::save(snap::Writer &w) const
{
    w.u64(size());
    for (std::uint16_t i = sent_; i < buffered_; ++i)
        pkt_.flit(i).save(w);
    w.b(busy());
    w.b(tailQueued());
}

void
VirtualChannel::load(snap::Reader &r)
{
    const std::uint64_t n = r.u64();
    sent_ = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        Flit f;
        f.load(r);
        if (i == 0) {
            pkt_ = {f.packet, f.src, f.dst, pkt_.lenFlits, {}, f.genCycle};
            sent_ = f.index;
        }
        if (f.tail)
            pkt_.lenFlits = static_cast<std::uint16_t>(f.index + 1);
    }
    buffered_ = static_cast<std::uint16_t>(sent_ + n);
    r.b(); // busy and tailQueued follow from the counters, once the
    r.b(); // port resumes the packet still streaming in
}

void
InputPort::fillCycle()
{
    if (sourceQueue_.empty())
        return;
    if (fillFrom(sourceQueue_.front()))
        sourceQueue_.pop_front();
}

bool
InputPort::fillFrom(const Packet &head)
{
    // Continue streaming the current packet into its VC.
    if (fillVc_ != kNoVc) {
        VirtualChannel &vc = vcs_[fillVc_];
        if (vc.full())
            return false; // backpressure: wait for the crossbar
        vc.fillOne();
        ++vcFlits_;
        if (!vc.tailQueued())
            return false;
        fillVc_ = kNoVc;
        return true;
    }

    // Allocate an idle VC for the next packet.
    for (std::uint32_t v = 0; v < vcs_.size(); ++v) {
        if (!vcs_[v].busy()) {
            vcs_[v].pushHead(head);
            ++vcFlits_;
            if (vcs_[v].tailQueued())
                return true;
            fillVc_ = v;
            return false;
        }
    }
    return false;
}

std::uint32_t
InputPort::pickCandidateVc(const BitVec *dst_free)
{
    sim_assert(!connected(), "busy input must not arbitrate");
    const std::uint32_t n = static_cast<std::uint32_t>(vcs_.size());
    std::uint32_t v = rrNext_;
    for (std::uint32_t k = 0; k < n; ++k) {
        const std::uint32_t next = v + 1 == n ? 0 : v + 1;
        const VirtualChannel &vc = vcs_[v];
        if (vc.headReady() &&
            (!dst_free || dst_free->test(vc.packet().dst))) {
            rrNext_ = next;
            return v;
        }
        v = next;
    }
    return kNoVc;
}

void
InputPort::breakConnection(std::uint32_t &flits_dropped,
                           bool &pop_source)
{
    sim_assert(connected(), "breaking an idle port");
    flits_dropped = flitsLeft();
    // A packet still streaming into the connected VC is the dropped one.
    pop_source = fillVc_ == connVc_;
    if (pop_source)
        fillVc_ = kNoVc;
    vcFlits_ -= vcs_[connVc_].size();
    vcs_[connVc_].clear();
    connVc_ = kNoVc;
}

void
InputPort::saveQueue(snap::Writer &w) const
{
    w.u64(sourceQueue_.size());
    for (std::size_t i = 0; i < sourceQueue_.size(); ++i)
        sourceQueue_[i].save(w);
}

void
InputPort::saveState(snap::Writer &w) const
{
    for (const auto &vc : vcs_)
        vc.save(w);
    w.u32(fillVc_);
    w.pod(static_cast<std::uint16_t>(fillProgress()));
    w.u32(rrNext_);
    w.u32(connVc_);
    w.u32(connOutput_);
    w.u32(flitsLeft());
    w.u64(connGenCycle_);
    // Former grant-cycle flag, false at every cycle boundary (the
    // grant cycle is fabric::SwitchCore's); kept for the format.
    w.b(false);
}

void
InputPort::load(snap::Reader &r)
{
    sourceQueue_.clear();
    std::uint64_t n = r.u64();
    sourceQueue_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        Packet p;
        p.load(r);
        sourceQueue_.push_back(p);
    }
    vcFlits_ = 0;
    for (auto &vc : vcs_) {
        vc.load(r);
        vcFlits_ += vc.size();
    }
    fillVc_ = r.u32();
    const auto filled = r.pod<std::uint16_t>();
    // The streaming packet is the source queue head; a virtual source
    // queue's owner passes it to resumeFill() instead.
    if (fillVc_ != kNoVc)
        vcs_[fillVc_].resumeStream(vcs_[fillVc_].packet(), filled);
    if (!sourceQueue_.empty())
        resumeFill(sourceQueue_.front());
    rrNext_ = r.u32();
    connVc_ = r.u32();
    connOutput_ = r.u32();
    r.u32(); // flitsLeft(), derived from the connected VC
    connGenCycle_ = r.u64();
    r.b(); // former grant-cycle flag, see save()
}

std::uint64_t
InputPort::backlogFlits() const
{
    std::uint64_t n = vcFlits_;
    for (std::size_t i = 0; i < sourceQueue_.size(); ++i)
        n += sourceQueue_[i].lenFlits;
    // The packet currently streaming sits in both the source queue
    // and (partially) a VC; discount the flits counted twice.
    return n - fillProgress();
}

} // namespace hirise::net
