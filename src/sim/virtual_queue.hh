/**
 * @file
 * Virtual source queues: NetworkSim's source queues for memoryless
 * patterns, at every load.
 *
 * A memoryless pattern's injections are pure functions of the counter
 * streams: input i injects at cycle g iff its Bernoulli draw at g
 * passes, and that packet's dst is destAt(i, g, seed). Only a
 * packet's id depends on the run, and only through the other inputs
 * that injected in the same cycle: ids are handed out in ascending
 * input order within a cycle. So nothing needs to be queued. Per
 * input the queues keep a pending-packet count and the head packet;
 * per cycle they log {next id at cycle start, mask of the inputs that
 * injected}, in a ring covering only the oldest pending head's cycle
 * up to now. When a head leaves, input i's next packet is at the next
 * cycle g whose mask has bit i set, with
 *
 *     id  = base(g) + popcount(mask(g) & inputs below i)
 *     dst = destAt(i, g, seed).
 *
 * At load >= 1 every mask is the participant set, and this is the
 * k * P + rank(i) + 1 id identity of the saturated queue. The backlog
 * is a count instead of stored packets (the queue-length view of
 * "From MWM to iSLIP"), and one destAt hash is paid per packet that
 * leaves a queue rather than per packet injected.
 *
 * Stateful patterns (bursty, trace replay) keep NetworkSim's
 * materialized RingBuffer queues, as does SimConfig::legacySatQueues.
 * Bit-identity with them, snapshot bytes included, is enforced by
 * tests/sat_fastpath_test.cc and the fuzzer's queue-mode pass.
 */

#ifndef HIRISE_SIM_VIRTUAL_QUEUE_HH
#define HIRISE_SIM_VIRTUAL_QUEUE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/bitvec.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/snapshot.hh"
#include "net/packet.hh"
#include "traffic/pattern.hh"

namespace hirise::sim {

class VirtualSourceQueues
{
  public:
    using Word = BitVec::Word;

    /** True when @p load saturates the injection Bernoulli (every
     *  draw passes, i.e. load >= 1). Snapshots of a saturated run keep
     *  the head-only record format (see saveSaturated()). */
    static bool
    saturates(double load)
    {
        return bernoulliThreshold(load) == (std::uint64_t(1) << 53);
    }

    /** Empty queues for a @p radix-input switch; @p pat must be
     *  memoryless. */
    void
    init(traffic::TrafficPattern &pat, std::uint32_t radix,
         std::uint32_t packet_len, std::uint64_t seed)
    {
        pat_ = &pat;
        seed_ = seed;
        len_ = static_cast<std::uint16_t>(packet_len);
        words_ = (radix + kWordBits - 1) / kWordBits;
        heads_.assign(radix, net::Packet{});
        pending_.assign(radix, 0);
        queued_ = 0;
        ring_.assign(std::size_t(kInitialCycles) * stride(), 0);
        cap_ = kInitialCycles;
        start_ = end_ = 0;
    }

    /** Open cycle @p now's log entry; @p next_id is the id the cycle's
     *  first injection gets. Call before that cycle's injectWord()s. */
    void
    beginCycle(net::Cycle now, net::PacketId next_id)
    {
        if (queued_ == 0)
            start_ = end_ = now; // nothing pending: the log restarts
        sim_assert(end_ == now, "virtual queue log skipped a cycle");
        if (end_ - start_ == cap_)
            makeRoom();
        cur_ = entry(end_++);
        cur_[0] = next_id;
        std::fill(cur_ + 1, cur_ + 1 + words_, Word(0));
    }

    /**
     * The inputs in word @p k's @p bits (bit b is input 64k + b)
     * inject in the open cycle @p now, taking ids from @p first_id up
     * in ascending input order. Returns the inputs whose queue was
     * empty, now headed by the new packet.
     */
    Word
    injectWord(std::uint32_t k, Word bits, net::PacketId first_id,
               net::Cycle now)
    {
        cur_[1 + k] |= bits;
        queued_ += std::popcount(bits);
        Word fresh = 0;
        net::PacketId id = first_id;
        for (Word w = bits; w; w &= w - 1, ++id) {
            const std::uint32_t i =
                k * kWordBits +
                static_cast<std::uint32_t>(std::countr_zero(w));
            if (pending_[i]++ == 0) {
                heads_[i] = packetAt(i, now, id);
                fresh |= w & -w;
            }
        }
        return fresh;
    }

    std::uint64_t pending(std::uint32_t i) const { return pending_[i]; }
    const net::Packet &head(std::uint32_t i) const { return heads_[i]; }

    /** The head left input @p i's queue (streamed into a VC, or
     *  dropped by a fault mid-stream): the next pending packet becomes
     *  the head. Returns false when the queue is now empty. */
    bool
    advance(std::uint32_t i)
    {
        --queued_;
        if (--pending_[i] == 0)
            return false;
        heads_[i] = nextAfter(i, heads_[i].genCycle);
        return true;
    }

    /** Flits injected at input @p i and not yet streamed out,
     *  counting the head in full (InputPort::backlogFlits() already
     *  discounts its streamed part). */
    std::uint64_t
    pendingFlits(std::uint32_t i) const
    {
        return pending_[i] * len_;
    }

    // -- checkpoint/restore -------------------------------------------
    //
    // The queues serialize as the packets a materialized queue would
    // hold, so a snapshot does not depend on the queue mode's memory
    // layout (except at saturation, which keeps its head-only format).

    /** Call @p fn(packet) for input @p i's queued packets, oldest
     *  first. */
    template <typename Fn>
    void
    forEachQueued(std::uint32_t i, Fn &&fn) const
    {
        if (pending_[i] == 0)
            return;
        net::Packet p = heads_[i];
        fn(p);
        for (std::uint64_t k = 1; k < pending_[i]; ++k) {
            p = nextAfter(i, p.genCycle);
            fn(p);
        }
    }

    /** Input @p i's queue in InputPort::saveQueue()'s format. */
    void
    saveQueue(snap::Writer &w, std::uint32_t i) const
    {
        w.u64(pending_[i]);
        forEachQueued(i, [&](const net::Packet &p) { p.save(w); });
    }

    /**
     * The saturated format: every input's next packet to stream (the
     * head, or at an empty queue the packet it injects at @p now,
     * id @p next_id + rank), and a default packet for non-
     * participants. Pending counts follow from @p now on load.
     */
    void
    saveSaturated(snap::Writer &w, net::Cycle now,
                  net::PacketId next_id) const
    {
        std::vector<net::Packet> heads(heads_.size(), net::Packet{});
        net::PacketId id = next_id;
        for (std::uint32_t i = 0; i < heads_.size(); ++i) {
            if (!pat_->participates(i))
                continue;
            heads[i] = pending_[i] ? heads_[i] : packetAt(i, now, id);
            ++id;
        }
        w.vec(heads);
    }

    /** Restore input @p i's queue: @p count packets, @p head first. */
    void
    restore(std::uint32_t i, std::uint64_t count, const net::Packet &head)
    {
        queued_ += count - pending_[i];
        pending_[i] = count;
        heads_[i] = head;
    }

    /** Read saveSaturated()'s records: input i holds every packet from
     *  its head's cycle up to @p now. Call rebuildLog() next. */
    void
    loadSaturated(snap::Reader &r, net::Cycle now)
    {
        std::vector<net::Packet> heads;
        r.vec(heads);
        sim_assert(heads.size() == heads_.size(),
                   "virtual queue snapshot shape mismatch");
        for (std::uint32_t i = 0; i < heads.size(); ++i) {
            if (pat_->participates(i))
                restore(i, now - heads[i].genCycle, heads[i]);
        }
    }

    /**
     * After restore(): rebuild the log from the oldest pending head's
     * cycle up to @p now - 1 (masks redrawn from the counter streams
     * at @p rate, bases counted back from @p next_id), and check each
     * restored head against it.
     */
    void
    rebuildLog(net::Cycle now, net::PacketId next_id, double rate)
    {
        net::Cycle from = now;
        for (std::uint32_t i = 0; i < heads_.size(); ++i) {
            if (pending_[i])
                from = std::min(from, heads_[i].genCycle);
        }
        start_ = end_ = from;
        while (now - from > cap_)
            grow();
        for (net::Cycle g = from; g < now; ++g) {
            Word *e = entry(end_++);
            std::fill(e + 1, e + 1 + words_, Word(0));
            for (std::uint32_t i = 0; i < heads_.size(); ++i) {
                if (pat_->injectAt(i, g, rate, seed_))
                    e[1 + i / kWordBits] |= Word(1) << (i % kWordBits);
            }
        }
        net::PacketId base = next_id;
        for (net::Cycle g = now; g-- > from;) {
            Word *e = entry(g);
            for (std::uint32_t k = 0; k < words_; ++k)
                base -= std::popcount(e[1 + k]);
            e[0] = base;
        }
        for (std::uint32_t i = 0; i < heads_.size(); ++i) {
            if (!pending_[i])
                continue;
            const net::Cycle g = heads_[i].genCycle;
            const Word *e = entry(g);
            const net::Packet want = packetAt(i, g, e[0] + rankIn(e, i));
            sim_assert(g < now && injected(e, i) &&
                           want.id == heads_[i].id &&
                           want.dst == heads_[i].dst &&
                           want.lenFlits == heads_[i].lenFlits,
                       "snapshot queue head of input %u is not the "
                       "packet its counter streams give",
                       i);
        }
    }

    /** Test-only seeded mutation (check/oracle.hh
     *  Mutation::QueueIdOffByOne): an advanced head counts its own
     *  input in the popcount, so its id is one too high. */
    bool mutIdOffByOne = false;

  private:
    static constexpr std::uint32_t kWordBits = BitVec::kWordBits;
    /** Initial log capacity in cycles; a power of two. */
    static constexpr net::Cycle kInitialCycles = 256;

    /** Log entry words: the base id, then the injection mask. */
    std::size_t stride() const { return 1 + words_; }

    Word *
    entry(net::Cycle g)
    {
        return ring_.data() + std::size_t(g & (cap_ - 1)) * stride();
    }
    const Word *
    entry(net::Cycle g) const
    {
        return ring_.data() + std::size_t(g & (cap_ - 1)) * stride();
    }

    static bool
    injected(const Word *e, std::uint32_t i)
    {
        return (e[1 + i / kWordBits] >> (i % kWordBits)) & 1u;
    }

    /** Input @p i's first packet injected after cycle @p g. */
    net::Packet
    nextAfter(std::uint32_t i, net::Cycle g) const
    {
        const Word *e;
        do {
            e = entry(++g);
        } while (!injected(e, i));
        return packetAt(i, g, e[0] + rankIn(e, i));
    }

    /** Inputs below @p i that injected in log entry @p e. */
    std::uint64_t
    rankIn(const Word *e, std::uint32_t i) const
    {
        const std::uint32_t k = i / kWordBits;
        std::uint64_t r = 0;
        for (std::uint32_t w = 0; w < k; ++w)
            r += std::popcount(e[1 + w]);
        Word below = (Word(1) << (i % kWordBits)) - 1;
        if (mutIdOffByOne)
            below = (below << 1) | 1;
        return r + std::popcount(e[1 + k] & below);
    }

    net::Packet
    packetAt(std::uint32_t i, net::Cycle g, net::PacketId id) const
    {
        net::Packet p;
        p.id = id;
        p.src = i;
        p.dst = pat_->destAt(i, g, seed_);
        sim_assert(p.dst < heads_.size(), "pattern dst out of range");
        p.lenFlits = len_;
        p.genCycle = g;
        return p;
    }

    /** The log is full: drop the entries before the oldest pending
     *  head's cycle, or double the ring when every entry is live. */
    void
    makeRoom()
    {
        net::Cycle oldest = end_;
        for (std::uint32_t i = 0; i < heads_.size(); ++i) {
            if (pending_[i])
                oldest = std::min(oldest, heads_[i].genCycle);
        }
        start_ = oldest;
        if (end_ - start_ == cap_)
            grow();
    }

    /** Double the ring, keeping live entries at their cycles. */
    void
    grow()
    {
        std::vector<Word> old(std::size_t(cap_ * 2) * stride(), 0);
        old.swap(ring_);
        const net::Cycle old_cap = cap_;
        cap_ *= 2;
        for (net::Cycle g = start_; g < end_; ++g) {
            const Word *src =
                old.data() + std::size_t(g & (old_cap - 1)) * stride();
            std::copy(src, src + stride(), entry(g));
        }
    }

    traffic::TrafficPattern *pat_ = nullptr;
    std::uint64_t seed_ = 0;
    std::uint16_t len_ = 0;
    std::uint32_t words_ = 0; //!< mask words per log entry
    std::vector<net::Packet> heads_;
    std::vector<std::uint64_t> pending_; //!< queued packets per input
    std::uint64_t queued_ = 0;           //!< sum of pending_
    /** Log entries for cycles [start_, end_), entry(g) at slot
     *  g mod cap_. */
    std::vector<Word> ring_;
    Word *cur_ = nullptr; //!< the open cycle's entry
    net::Cycle cap_ = 0;
    net::Cycle start_ = 0;
    net::Cycle end_ = 0;
};

} // namespace hirise::sim

#endif // HIRISE_SIM_VIRTUAL_QUEUE_HH
