/**
 * @file
 * Closed-loop message transport over one switch fabric: the central
 * interconnect of the 64-core system. Same timing contract as the
 * open-loop NetworkSim (connection-held, one arbitration cycle, one
 * flit per data cycle), but fed by tile events and delivering whole
 * messages to a callback.
 *
 * The protocol is fabric::SwitchCore's, as in NetworkSim: only waiting
 * ports (idle, with a queued message) pick, against the core's
 * free-output set, and the core drives the fabric. This class adds
 * the VC queues, the round-robin VC walk that chooses each port's
 * request, and message delivery; the backlog is a running count.
 * A port whose VC heads all wait on held outputs parks on those
 * outputs: its pick can only succeed once one of them is freed or a
 * message reaches an empty VC. Nothing allocates once the VC rings
 * have reached their high-water size.
 */

#ifndef HIRISE_CMP_MSG_SWITCH_HH
#define HIRISE_CMP_MSG_SWITCH_HH

#include <functional>
#include <memory>
#include <vector>

#include "cmp/transport.hh"
#include "common/ring_buffer.hh"
#include "fabric/switch_core.hh"

namespace hirise::cmp {

class MsgSwitch : public Transport
{
  public:
    MsgSwitch(const SwitchSpec &spec, std::uint32_t num_vcs,
              DeliverFn deliver);

    /** As above, but with a caller-supplied fabric (an oracle or a
     *  lockstep differential fabric). */
    MsgSwitch(const SwitchSpec &spec, std::uint32_t num_vcs,
              DeliverFn deliver, std::unique_ptr<fabric::Fabric> fabric);

    /** Enqueue @p m at its source tile's input port. */
    void send(const Message &m) override;

    /** Advance one switch cycle. */
    void step() override;

    std::uint64_t flitsDelivered() const { return flitsDelivered_; }
    std::uint64_t
    messagesDelivered() const override
    {
        return delivered_;
    }
    std::uint64_t backlogMessages() const { return backlog_; }

    /** Mean over time of the total queued messages (congestion). */
    double avgBacklog() const
    {
        return cycles_ ? backlogAccum_ / double(cycles_) : 0.0;
    }

  private:
    struct Port
    {
        std::uint32_t vc = 0;        //!< VC of the picked/held message
        std::uint32_t flitsLeft = 0; //!< of the held message
        std::uint32_t rr = 0;        //!< next VC the round-robin tries
        std::uint32_t queued = 0;    //!< messages over all VCs
    };

    RingBuffer<Message> &
    vc(std::uint32_t port, std::uint32_t v)
    {
        return vcs_[std::size_t(port) * numVcs_ + v];
    }

    /** Output of the head message of VC @p v at @p port, or
     *  fabric::kNoRequest for an empty VC. */
    std::uint32_t &
    headOut(std::uint32_t port, std::uint32_t v)
    {
        return headOut_[std::size_t(port) * numVcs_ + v];
    }

    std::uint32_t numVcs_;
    fabric::SwitchCore core_;
    DeliverFn deliver_;
    std::vector<Port> ports_;
    std::vector<RingBuffer<Message>> vcs_; //!< port-major, numVcs_ each
    std::vector<std::uint32_t> headOut_;   //!< port-major, as vcs_

    std::uint64_t backlog_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t flitsDelivered_ = 0;
    std::uint64_t cycles_ = 0;
    double backlogAccum_ = 0.0;
};

} // namespace hirise::cmp

#endif // HIRISE_CMP_MSG_SWITCH_HH
