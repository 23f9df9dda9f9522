/**
 * @file
 * Tests for the network primitives: flits, VC counters, input ports.
 */

#include <gtest/gtest.h>

#include "common/bitvec.hh"
#include "net/input_port.hh"
#include "net/packet.hh"

using hirise::BitVec;
using namespace hirise::net;

namespace {

Packet
makePacket(PacketId id, std::uint32_t src, std::uint32_t dst,
           std::uint16_t len = 4, Cycle gen = 0)
{
    Packet p;
    p.id = id;
    p.src = src;
    p.dst = dst;
    p.lenFlits = len;
    p.genCycle = gen;
    return p;
}

} // namespace

TEST(Packet, FlitFraming)
{
    Packet p = makePacket(7, 3, 9, 4, 100);
    Flit f0 = p.flit(0);
    EXPECT_TRUE(f0.head);
    EXPECT_FALSE(f0.tail);
    EXPECT_EQ(f0.dst, 9u);
    EXPECT_EQ(f0.genCycle, 100u);
    Flit f3 = p.flit(3);
    EXPECT_FALSE(f3.head);
    EXPECT_TRUE(f3.tail);
    // Single-flit packet is both head and tail.
    Packet s = makePacket(8, 0, 1, 1);
    EXPECT_TRUE(s.flit(0).head);
    EXPECT_TRUE(s.flit(0).tail);
}

TEST(VirtualChannel, PacketOwnershipLifecycle)
{
    VirtualChannel vc(4);
    EXPECT_TRUE(vc.empty());
    EXPECT_FALSE(vc.busy());

    Packet p = makePacket(1, 0, 5);
    vc.pushHead(p);
    EXPECT_TRUE(vc.busy());
    EXPECT_TRUE(vc.headReady());
    EXPECT_FALSE(vc.tailQueued());
    EXPECT_EQ(vc.packet().dst, 5u);

    for (std::uint16_t i = 1; i < 4; ++i)
        vc.fillOne();
    EXPECT_TRUE(vc.full());
    EXPECT_TRUE(vc.tailQueued());

    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(vc.sendOne()); // not the tail
        EXPECT_TRUE(vc.busy()); // still owned until the tail leaves
    }
    EXPECT_FALSE(vc.headReady()); // mid-packet head is not a head flit
    EXPECT_TRUE(vc.sendOne()); // the tail
    EXPECT_FALSE(vc.busy());
    EXPECT_TRUE(vc.empty());
    EXPECT_EQ(vc.buffered(), 0u);
    EXPECT_EQ(vc.sent(), 0u);
}

TEST(InputPort, FillStreamsOneFlitPerCycle)
{
    InputPort port(4, 4);
    port.sourceQueue().push_back(makePacket(1, 0, 5));
    for (int i = 0; i < 4; ++i)
        port.fillCycle();
    EXPECT_TRUE(port.sourceQueue().empty());
    EXPECT_EQ(port.vcs()[0].size(), 4u);
    EXPECT_TRUE(port.vcs()[0].tailQueued());
}

TEST(InputPort, SecondPacketTakesAnotherVc)
{
    InputPort port(4, 4);
    port.sourceQueue().push_back(makePacket(1, 0, 5));
    port.sourceQueue().push_back(makePacket(2, 0, 6));
    for (int i = 0; i < 8; ++i)
        port.fillCycle();
    EXPECT_EQ(port.vcs()[0].size(), 4u);
    EXPECT_EQ(port.vcs()[1].size(), 4u);
    EXPECT_EQ(port.vcs()[0].packet().dst, 5u);
    EXPECT_EQ(port.vcs()[1].packet().dst, 6u);
}

TEST(InputPort, FullVcBackpressuresFill)
{
    InputPort port(1, 2); // one VC, two flits deep
    port.sourceQueue().push_back(makePacket(1, 0, 5));
    for (int i = 0; i < 10; ++i)
        port.fillCycle();
    // Only 2 of 4 flits fit; the packet is still at the source.
    EXPECT_EQ(port.vcs()[0].size(), 2u);
    ASSERT_FALSE(port.sourceQueue().empty());
    // Draining one flit lets one more in.
    port.connect(0, 5);
    port.sendFlit();
    port.fillCycle();
    EXPECT_EQ(port.vcs()[0].size(), 2u);
}

TEST(InputPort, CandidateSelectionRoundRobins)
{
    InputPort port(4, 4);
    port.sourceQueue().push_back(makePacket(1, 0, 5));
    port.sourceQueue().push_back(makePacket(2, 0, 6));
    for (int i = 0; i < 8; ++i)
        port.fillCycle();
    std::uint32_t v1 = port.pickCandidateVc();
    std::uint32_t v2 = port.pickCandidateVc();
    EXPECT_NE(v1, InputPort::kNoVc);
    EXPECT_NE(v2, InputPort::kNoVc);
    EXPECT_NE(v1, v2); // round-robin moves past the first candidate
    EXPECT_EQ(port.vcDest(v1) + port.vcDest(v2), 11u);
}

TEST(InputPort, NoCandidateWhenEmpty)
{
    InputPort port(4, 4);
    EXPECT_EQ(port.pickCandidateVc(), InputPort::kNoVc);
}

TEST(InputPort, ConnectionLifecycle)
{
    InputPort port(4, 4);
    port.sourceQueue().push_back(makePacket(1, 0, 5));
    for (int i = 0; i < 4; ++i)
        port.fillCycle();
    std::uint32_t v = port.pickCandidateVc();
    port.connect(v, 5);
    EXPECT_TRUE(port.connected());
    EXPECT_EQ(port.connOutput(), 5u);
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(port.sendFlit());
    EXPECT_EQ(port.flitsLeft(), 1u);
    EXPECT_TRUE(port.sendFlit());
    EXPECT_FALSE(port.connected());
}

TEST(InputPort, BacklogCountsQueueAndVcsOnce)
{
    InputPort port(4, 4);
    port.sourceQueue().push_back(makePacket(1, 0, 5));
    port.sourceQueue().push_back(makePacket(2, 0, 6));
    EXPECT_EQ(port.backlogFlits(), 8u);
    port.fillCycle(); // one flit moves into a VC
    EXPECT_EQ(port.backlogFlits(), 8u);
    for (int i = 0; i < 3; ++i)
        port.fillCycle();
    EXPECT_EQ(port.backlogFlits(), 8u);
    port.connect(0, 5);
    port.sendFlit();
    EXPECT_EQ(port.backlogFlits(), 7u);
}

namespace {

/** A port whose VCs 0..n-1 each hold a whole packet for dst 5 + v. */
InputPort
portWithPackets(std::uint32_t num_vcs, std::uint32_t n)
{
    InputPort port(num_vcs, 4);
    for (std::uint32_t v = 0; v < n; ++v)
        port.sourceQueue().push_back(makePacket(v + 1, 0, 5 + v));
    for (std::uint32_t i = 0; i < 4 * n; ++i)
        port.fillCycle();
    return port;
}

} // namespace

TEST(InputPort, CandidateSkipsVcsBoundForBusyOutputs)
{
    InputPort port = portWithPackets(4, 3); // dsts 5, 6, 7
    EXPECT_EQ(port.pickCandidateVc(), 0u); // round-robin now at 1

    BitVec none(8);
    EXPECT_EQ(port.pickCandidateVc(&none), InputPort::kNoVc);
    // No VC qualified, so the round-robin pointer did not move.
    EXPECT_EQ(port.pickCandidateVc(), 1u);

    BitVec only7(8);
    only7.set(7);
    EXPECT_EQ(port.pickCandidateVc(&only7), 2u); // VC 0 (dst 5) skipped
    EXPECT_EQ(port.pickCandidateVc(), 0u); // wraps past empty VC 3
}

TEST(InputPort, RoundRobinWrapsOverThreeVcs)
{
    InputPort port = portWithPackets(3, 3);
    for (int round = 0; round < 2; ++round) {
        for (std::uint32_t v = 0; v < 3; ++v)
            EXPECT_EQ(port.pickCandidateVc(), v) << "round " << round;
    }
}

TEST(InputPort, OneFlitPacketIsHeadAndTail)
{
    InputPort port(4, 4);
    port.sourceQueue().push_back(makePacket(1, 0, 5, 1));
    port.fillCycle();
    EXPECT_TRUE(port.sourceQueue().empty());
    EXPECT_EQ(port.fillProgress(), 0u);
    EXPECT_TRUE(port.vcs()[0].headReady());
    EXPECT_TRUE(port.vcs()[0].tailQueued());

    ASSERT_EQ(port.pickCandidateVc(), 0u);
    port.connect(0, 5);
    EXPECT_EQ(port.flitsLeft(), 1u);
    EXPECT_TRUE(port.sendFlit());
    EXPECT_FALSE(port.connected());
    EXPECT_FALSE(port.vcs()[0].busy());
    EXPECT_FALSE(port.anyVcOccupied());
    EXPECT_EQ(port.backlogFlits(), 0u);
}

TEST(InputPort, BreakConnectionMidStreamClearsCounters)
{
    InputPort port(2, 4);
    port.sourceQueue().push_back(makePacket(1, 0, 5));
    port.fillCycle();
    port.fillCycle();
    port.connect(0, 5);
    port.sendFlit(); // one of the two buffered flits leaves

    std::uint32_t dropped = 0;
    bool pop_source = false;
    port.breakConnection(dropped, pop_source);
    EXPECT_EQ(dropped, 3u);
    EXPECT_TRUE(pop_source); // the packet was still streaming in
    EXPECT_FALSE(port.connected());
    EXPECT_EQ(port.fillProgress(), 0u);
    EXPECT_FALSE(port.vcs()[0].busy());
    EXPECT_EQ(port.vcs()[0].buffered(), 0u);
    EXPECT_EQ(port.vcs()[0].sent(), 0u);
    EXPECT_FALSE(port.anyVcOccupied());

    // Breaking after the tail is buffered leaves the source alone.
    port.sourceQueue().pop_front();
    port.sourceQueue().push_back(makePacket(2, 0, 6));
    for (int i = 0; i < 4; ++i)
        port.fillCycle();
    port.connect(0, 6);
    port.sendFlit();
    port.breakConnection(dropped, pop_source);
    EXPECT_EQ(dropped, 3u);
    EXPECT_FALSE(pop_source);
    EXPECT_EQ(port.vcs()[0].buffered(), 0u);
    EXPECT_EQ(port.vcs()[0].sent(), 0u);
    EXPECT_EQ(port.backlogFlits(), 0u);
}
