/**
 * @file
 * Input-port model: an unbounded source queue feeding a small set of
 * virtual channels (paper section V: 4 VCs x 4-flit buffers), with
 * one flit per cycle of injection bandwidth and round-robin VC
 * candidate selection for arbitration.
 */

#ifndef HIRISE_NET_INPUT_PORT_HH
#define HIRISE_NET_INPUT_PORT_HH

#include <cstdint>
#include <vector>

#include "common/bitvec.hh"
#include "common/ring_buffer.hh"
#include "net/packet.hh"

namespace hirise::net {

/** One virtual-channel FIFO plus its packet bookkeeping. */
class VirtualChannel
{
  public:
    explicit VirtualChannel(std::uint32_t depth)
        : depth_(depth), fifo_(depth)
    {}

    bool empty() const { return fifo_.empty(); }
    bool full() const { return fifo_.size() >= depth_; }
    std::size_t size() const { return fifo_.size(); }

    /** A packet owns this VC from its head entering until its tail
     *  leaves; no interleaving of packets within a VC. */
    bool busy() const { return busy_; }

    void
    pushFlit(const Flit &f)
    {
        fifo_.push_back(f);
        busy_ = true;
        if (f.tail)
            tailQueued_ = true;
    }

    const Flit &front() const { return fifo_.front(); }

    Flit
    popFlit()
    {
        Flit f = fifo_.front();
        fifo_.pop_front();
        if (f.tail) {
            busy_ = false;
            tailQueued_ = false;
        }
        return f;
    }

    /** Is the head flit the start of a packet, ready to arbitrate? */
    bool
    headReady() const
    {
        return !fifo_.empty() && fifo_.front().head;
    }

    /** Has the current packet's tail already been buffered? */
    bool tailQueued() const { return tailQueued_; }

    /** Discard every buffered flit and the packet's VC ownership.
     *  Used when a fault forcibly breaks the connection draining this
     *  VC: the in-flight packet is dropped, so its remaining flits
     *  must not linger as an ownerless partial packet. */
    void
    clear()
    {
        fifo_.clear();
        busy_ = false;
        tailQueued_ = false;
    }

    void
    save(snap::Writer &w) const
    {
        w.u64(fifo_.size());
        for (std::size_t i = 0; i < fifo_.size(); ++i)
            fifo_[i].save(w);
        w.b(busy_);
        w.b(tailQueued_);
    }

    void
    load(snap::Reader &r)
    {
        fifo_.clear();
        std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            Flit f;
            f.load(r);
            fifo_.push_back(f);
        }
        busy_ = r.b();
        tailQueued_ = r.b();
    }

  private:
    std::uint32_t depth_;
    /** Sized to depth_ up front; a full() check gates every push, so
     *  the ring never regrows past its initial capacity. */
    RingBuffer<Flit> fifo_;
    bool busy_ = false;
    bool tailQueued_ = false;
};

/**
 * An input port of the switch: source queue, VCs, the active
 * connection (if any), and the injection link that serializes one
 * flit per cycle from the source queue into the VCs.
 */
class InputPort
{
  public:
    static constexpr std::uint32_t kNoVc = ~0u;

    InputPort(std::uint32_t num_vcs, std::uint32_t vc_depth)
        : vcs_(num_vcs, VirtualChannel(vc_depth))
    {}

    RingBuffer<Packet> &sourceQueue() { return sourceQueue_; }
    const RingBuffer<Packet> &sourceQueue() const
    {
        return sourceQueue_;
    }

    std::vector<VirtualChannel> &vcs() { return vcs_; }
    const std::vector<VirtualChannel> &vcs() const { return vcs_; }

    /** Move up to one flit from the source queue into the VCs.
     *  Prefers continuing the packet currently streaming in. */
    void fillCycle();

    /**
     * Core of fillCycle for an externally supplied head packet:
     * streams at most one flit of @p head into a VC. Returns true
     * when @p head 's last flit went in (the caller advances its
     * queue). While a packet is mid-stream (fillProgress() > 0) the
     * caller must keep passing the same packet. Used by the virtual
     * source queues, which reconstruct head packets from the counter
     * streams instead of materializing them.
     */
    bool fillFrom(const Packet &head);

    /** Flits of the currently streaming packet already moved into a
     *  VC (0 when no packet is mid-stream). */
    std::uint32_t
    fillProgress() const
    {
        return fillVc_ == kNoVc ? 0u : fillIdx_;
    }

    // -- connection state ------------------------------------------
    bool connected() const { return connVc_ != kNoVc; }
    std::uint32_t connVc() const { return connVc_; }
    std::uint32_t connOutput() const { return connOutput_; }
    std::uint32_t flitsLeft() const { return connFlitsLeft_; }
    /** genCycle of the connected packet (valid while connected);
     *  lets a forced break attribute the dropped packet to the
     *  measurement window without digging for its flits. */
    Cycle connGenCycle() const { return connGenCycle_; }

    void
    connect(std::uint32_t vc, std::uint32_t output,
            std::uint32_t len_flits, Cycle gen_cycle = 0)
    {
        connVc_ = vc;
        connOutput_ = output;
        connFlitsLeft_ = len_flits;
        connGenCycle_ = gen_cycle;
    }

    /** One flit transferred; returns true when the packet completed. */
    bool
    transferOne()
    {
        --connFlitsLeft_;
        if (connFlitsLeft_ == 0) {
            connVc_ = kNoVc;
            return true;
        }
        return false;
    }

    /**
     * The VC that should arbitrate this cycle (round-robin over VCs
     * with a ready head flit), or kNoVc. Ports with an active
     * connection must not arbitrate (the input bus is in use).
     *
     * @param dst_free  availability of each destination, observed via
     *                  the crosspoints' Channel_free lines (Fig 6);
     *                  VCs headed to busy outputs are skipped. Pass
     *                  nullptr to consider every ready VC.
     */
    std::uint32_t
    pickCandidateVc(const BitVec *dst_free = nullptr);

    /** Destination requested by the candidate VC. */
    std::uint32_t
    vcDest(std::uint32_t vc) const
    {
        return vcs_[vc].front().dst;
    }

    /** Any flit buffered in any VC? For a non-connected port this is
     *  equivalent to "some VC is head-ready" (packets enter a VC head
     *  first and drain only while connected), which is what makes it
     *  a valid arbitration-eligibility signal for the event-driven
     *  simulator core. */
    bool
    anyVcOccupied() const
    {
        for (const auto &vc : vcs_) {
            if (!vc.empty())
                return true;
        }
        return false;
    }

    /** Total flits buffered in VCs plus queued at the source. */
    std::uint64_t backlogFlits() const;

    /**
     * Forcibly tear down the active connection because its channel
     * failed, dropping the in-flight packet: clears the connection's
     * VC, cancels the injection stream if it was still feeding that
     * same packet (VC ownership guarantees the streaming packet *is*
     * the connected one), and reports what must be dropped.
     *
     * @param[out] flits_dropped  connection flits never transferred
     *                            (the caller charges these to its
     *                            dropped-flit ledger)
     * @param[out] pop_source     true when the dropped packet is still
     *                            the source queue's head (fill was
     *                            mid-stream); the caller advances the
     *                            real or virtual source queue
     */
    void breakConnection(std::uint32_t &flits_dropped,
                         bool &pop_source);

    void save(snap::Writer &w) const;
    void load(snap::Reader &r);

  private:
    RingBuffer<Packet> sourceQueue_;
    std::vector<VirtualChannel> vcs_;

    /** Injection-side streaming state. */
    std::uint32_t fillVc_ = kNoVc;   //!< VC receiving the current packet
    std::uint16_t fillIdx_ = 0;      //!< next flit index to inject

    /** Arbitration round-robin pointer. */
    std::uint32_t rrNext_ = 0;

    /** Active crossbar connection. */
    std::uint32_t connVc_ = kNoVc;
    std::uint32_t connOutput_ = 0;
    std::uint32_t connFlitsLeft_ = 0;
    Cycle connGenCycle_ = 0;
};

} // namespace hirise::net

#endif // HIRISE_NET_INPUT_PORT_HH
