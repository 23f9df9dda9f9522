/**
 * @file
 * Flit and packet types for the cycle-accurate switch simulator.
 * Simulations use 4-flit packets of 128-bit flits to match the paper's
 * methodology (section V), but lengths are configurable.
 */

#ifndef HIRISE_NET_PACKET_HH
#define HIRISE_NET_PACKET_HH

#include <cstdint>

#include "common/snapshot.hh"

namespace hirise::net {

using Cycle = std::uint64_t;
using PacketId = std::uint64_t;

/** A fixed-size unit of transfer: one bus-width beat. */
struct Flit
{
    PacketId packet = 0;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint16_t index = 0; //!< position within the packet
    bool head = false;
    bool tail = false;
    Cycle genCycle = 0; //!< cycle the parent packet was created

    void
    save(snap::Writer &w) const
    {
        w.u64(packet);
        w.u32(src);
        w.u32(dst);
        w.pod(index);
        w.b(head);
        w.b(tail);
        w.u64(genCycle);
    }

    void
    load(snap::Reader &r)
    {
        packet = r.u64();
        src = r.u32();
        dst = r.u32();
        index = r.pod<std::uint16_t>();
        head = r.b();
        tail = r.b();
        genCycle = r.u64();
    }
};

/** A multi-flit message, serialized into flits at the source. */
struct Packet
{
    PacketId id = 0;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint16_t lenFlits = 4;
    std::uint16_t pad_[3] = {}; //!< so raw copies hold no stray byte
    Cycle genCycle = 0;

    void
    save(snap::Writer &w) const
    {
        w.u64(id);
        w.u32(src);
        w.u32(dst);
        w.pod(lenFlits);
        w.u64(genCycle);
    }

    void
    load(snap::Reader &r)
    {
        id = r.u64();
        src = r.u32();
        dst = r.u32();
        lenFlits = r.pod<std::uint16_t>();
        genCycle = r.u64();
    }

    Flit
    flit(std::uint16_t idx) const
    {
        Flit f;
        f.packet = id;
        f.src = src;
        f.dst = dst;
        f.index = idx;
        f.head = (idx == 0);
        f.tail = (idx + 1 == lenFlits);
        f.genCycle = genCycle;
        return f;
    }
};

static_assert(std::has_unique_object_representations_v<Packet>,
              "Packet must have no implicit padding");

} // namespace hirise::net

#endif // HIRISE_NET_PACKET_HH
