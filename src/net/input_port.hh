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

/**
 * One virtual channel as counts, not flits. A packet owns the VC from
 * its head's arrival until its tail leaves, and each flit is a
 * function of its packet and index (Packet::flit), so the packet
 * header plus flits buffered and flits sent is the whole VC state.
 */
class VirtualChannel
{
  public:
    explicit VirtualChannel(std::uint32_t depth) : depth_(depth) {}

    std::uint32_t size() const { return buffered_ - sent_; }
    bool empty() const { return buffered_ == sent_; }
    bool full() const { return size() >= depth_; }

    bool busy() const { return buffered_ != 0; }

    /** Is the packet's head buffered and unsent, ready to arbitrate? */
    bool headReady() const { return sent_ == 0 && buffered_ != 0; }

    /** Has the current packet's tail already been buffered? */
    bool tailQueued() const { return busy() && buffered_ == pkt_.lenFlits; }

    /** Owning packet's header; still readable after the tail left,
     *  until the next head arrives. */
    const Packet &packet() const { return pkt_; }
    std::uint16_t buffered() const { return buffered_; }
    std::uint16_t sent() const { return sent_; }

    /** The head of @p p enters the idle VC. */
    void pushHead(const Packet &p) { pkt_ = p; buffered_ = 1; }

    /** The owning packet's next flit enters. */
    void fillOne() { ++buffered_; }

    /** The oldest flit leaves; true when it was the tail (VC freed). */
    bool
    sendOne()
    {
        if (++sent_ != pkt_.lenFlits)
            return false;
        buffered_ = sent_ = 0;
        return true;
    }

    /** Drop the packet: a fault broke the connection draining it. */
    void clear() { buffered_ = sent_ = 0; }

    /** After load(): @p head streams in, @p filled flits buffered (the
     *  records lack its length, or all of it once every flit left). */
    void
    resumeStream(const Packet &head, std::uint16_t filled)
    {
        sent_ = static_cast<std::uint16_t>(filled - size());
        buffered_ = filled;
        pkt_ = head;
    }

    /** The buffered flits' records, as when VCs stored flits. */
    void save(snap::Writer &w) const;
    void load(snap::Reader &r);

  private:
    Packet pkt_;
    std::uint16_t buffered_ = 0;
    std::uint16_t sent_ = 0;
    std::uint32_t depth_;
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
    const RingBuffer<Packet> &sourceQueue() const { return sourceQueue_; }

    const std::vector<VirtualChannel> &vcs() const { return vcs_; }

    /** Move up to one flit from the source queue into the VCs.
     *  Prefers continuing the packet currently streaming in. */
    void fillCycle();

    /** fillCycle for an externally supplied head packet: streams at
     *  most one flit of @p head into a VC and returns true once its
     *  last flit went in. Mid-stream (fillProgress() > 0) the caller
     *  keeps passing the same packet; the virtual source queues
     *  rebuild their heads from the counter streams. */
    bool fillFrom(const Packet &head);

    /** After load() with a virtual source queue: @p head is the
     *  packet streaming in, if one is (see resumeStream). */
    void
    resumeFill(const Packet &head)
    {
        if (fillVc_ != kNoVc)
            vcs_[fillVc_].resumeStream(head, vcs_[fillVc_].buffered());
    }

    /** Flits of the currently streaming packet already moved into a
     *  VC (0 when no packet is mid-stream). */
    std::uint32_t
    fillProgress() const
    {
        return fillVc_ == kNoVc ? 0u : vcs_[fillVc_].buffered();
    }

    // -- connection state ------------------------------------------
    bool connected() const { return connVc_ != kNoVc; }
    std::uint32_t connVc() const { return connVc_; }
    std::uint32_t connOutput() const { return connOutput_; }

    /** Flits of the connected packet not yet sent (0 when idle). */
    std::uint32_t
    flitsLeft() const
    {
        const VirtualChannel *vc = connected() ? &vcs_[connVc_] : nullptr;
        return vc ? vc->packet().lenFlits - vc->sent() : 0u;
    }

    /** genCycle of the last connected packet (its header may be gone
     *  from the VC once the tail left; snapshots keep it). */
    Cycle connGenCycle() const { return connGenCycle_; }

    void
    connect(std::uint32_t vc, std::uint32_t output)
    {
        connVc_ = vc;
        connOutput_ = output;
        connGenCycle_ = vcs_[vc].packet().genCycle;
    }

    /** One buffered flit of the connected VC crosses the switch;
     *  returns true when it was the tail, ending the connection. */
    bool
    sendFlit()
    {
        --vcFlits_;
        if (!vcs_[connVc_].sendOne())
            return false;
        connVc_ = kNoVc;
        return true;
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
        return vcs_[vc].packet().dst;
    }

    /** Any flit buffered in any VC? For a non-connected port this is
     *  equivalent to "some VC is head-ready" (packets enter a VC head
     *  first and drain only while connected), which is what makes it
     *  a valid arbitration-eligibility signal for the event-driven
     *  simulator core. */
    bool anyVcOccupied() const { return vcFlits_ != 0; }

    /** Total flits buffered in VCs plus queued at the source. */
    std::uint64_t backlogFlits() const;

    /**
     * Forcibly tear down the active connection because its channel
     * failed, dropping the in-flight packet: clears the connection's
     * VC and cancels the injection stream if it was still feeding it.
     *
     * @param[out] flits_dropped  connection flits never transferred,
     *                            for the caller's dropped-flit ledger
     * @param[out] pop_source     true when the dropped packet is still
     *                            the source queue's head; the caller
     *                            advances the real or virtual queue
     */
    void breakConnection(std::uint32_t &flits_dropped,
                         bool &pop_source);

    /** save() is saveQueue() then saveState(); an owner keeping the
     *  queue elsewhere writes its records in saveQueue()'s format. */
    void save(snap::Writer &w) const { saveQueue(w); saveState(w); }
    void saveQueue(snap::Writer &w) const;
    void saveState(snap::Writer &w) const;
    void load(snap::Reader &r);

  private:
    RingBuffer<Packet> sourceQueue_;
    std::vector<VirtualChannel> vcs_;

    std::uint32_t fillVc_ = kNoVc; //!< VC receiving the current packet
    std::uint32_t vcFlits_ = 0;    //!< flits buffered over all VCs

    std::uint32_t rrNext_ = 0; //!< arbitration round-robin pointer

    std::uint32_t connVc_ = kNoVc; //!< active crossbar connection
    std::uint32_t connOutput_ = 0;
    Cycle connGenCycle_ = 0;
};

} // namespace hirise::net

#endif // HIRISE_NET_INPUT_PORT_HH
