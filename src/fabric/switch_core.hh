/**
 * @file
 * The connection-held switch protocol of paper section III, written
 * once for every engine that steps a Fabric (NetworkSim, MsgSwitch,
 * each GraphNoc router, the fault-tolerance study): an idle output is
 * arbitrated in one cycle, the winner holds the path until its tail
 * flit, a connected input does not arbitrate, and the grant cycle
 * carries no data (its buses carried the arbitration).
 *
 * The core owns the fabric, the per-input state, the free-output set
 * and the request scratch. Engines supply their policy as inlined
 * callables: which output an input requests, what a grant takes from
 * their queues, what a data cycle moves. Under HIRISE_CHECK every
 * grant set is checked to be a matching, and after each transfer the
 * free-output set to equal the fabric's !outputBusy.
 *
 * Parking is opt-in: a pick that fails may name, with parkOn(i, o),
 * the outputs whose change could make it succeed. The input then
 * leaves the waiting set until one of them is freed (a release or a
 * forced break), the engine signals a change on one (wakeOutput), or
 * the input is woken (wake). An engine parks only where a failed pick
 * has no side effects and nothing else can turn it into a request;
 * under HIRISE_CHECK every parked input is re-picked each cycle and
 * must still fail (docs/HOTPATH.md "Closed-loop engines").
 */

#ifndef HIRISE_FABRIC_SWITCH_CORE_HH
#define HIRISE_FABRIC_SWITCH_CORE_HH

#include <algorithm>
#include <bit>
#include <memory>
#include <span>
#include <vector>

#include "common/bitvec.hh"
#include "fabric/fabric.hh"

#ifdef HIRISE_CHECK_ENABLED
#include "check/invariants.hh"
#endif

namespace hirise::fabric {

class SwitchCore
{
  public:
    explicit SwitchCore(std::unique_ptr<Fabric> fabric)
        : fabric_(std::move(fabric))
    {
        sim_assert(fabric_ != nullptr, "a switch core needs a fabric");
        const std::uint32_t n = fabric_->radix();
        waiting_.resize(n);
        connected_.resize(n);
        granted_.resize(n);
        free_.resize(n);
        free_.fill(); // no output is held at reset
        slots_.assign(3 * std::size_t(n), kNoRequest);
        req_ = std::span(slots_).first(n);
        held_ = std::span(slots_).subspan(n, n);
        active_ = std::span(slots_).last(n);
        parkWords_ = waiting_.numWords();
        park_.assign((std::size_t(n) + 1) * parkWords_, 0);
    }

    Fabric &fabric() { return *fabric_; }
    const Fabric &fabric() const { return *fabric_; }
    std::uint32_t radix() const { return fabric_->radix(); }

    const BitVec &freeOutputs() const { return free_; }
    bool outputFree(std::uint32_t o) const { return free_[o]; }
    bool waiting(std::uint32_t i) const { return waiting_[i]; }
    bool connected(std::uint32_t i) const { return connected_[i]; }
    /** Output held by connected input @p i. */
    std::uint32_t heldOutput(std::uint32_t i) const { return held_[i]; }
    /** Input @p i is parked: it has work but is not offered to pick
     *  until an output it parked on changes or it is woken. */
    bool
    parked(std::uint32_t i) const
    {
        return testBit(parkedSet(), i);
    }
    /** No input waits, is parked or holds a connection. */
    bool
    quiescent() const
    {
        if (!waiting_.none() || !connected_.none())
            return false;
        if (!parking_)
            return true;
        const BitVec::Word *p = parkedSet();
        return std::all_of(p, p + parkWords_,
                           [](BitVec::Word w) { return w == 0; });
    }

    /** Input @p i has work: it requests from the next arbitration on,
     *  unless it holds a connection (then release() re-wakes it). A
     *  parked input is re-armed. */
    void
    wake(std::uint32_t i)
    {
        if (connected_[i])
            return;
        waiting_.set(i);
        if (parking_)
            clearBit(parkedSet(), i);
    }

    /**
     * Called by a failing pick of input @p i (one that returns
     * kNoRequest) for each output @p o whose change could turn the
     * failure into a request. The input leaves the waiting set once
     * the pick returns and is re-armed when @p o is freed, on
     * wakeOutput(o), or on wake(i). A pick that succeeds must not
     * call it.
     */
    void
    parkOn(std::uint32_t i, std::uint32_t o)
    {
        setBit(parkRow(o), i);
        parkPending_ = true;
    }

    /** Something a pick reads about output @p o changed (e.g. its
     *  downstream buffer freed a slot): re-arm the inputs parked on
     *  it. */
    void
    wakeOutput(std::uint32_t o)
    {
        BitVec::Word *row = parkRow(o);
        BitVec::Word *parked = parkedSet();
        BitVec::Word *wait = waiting_.words();
        for (std::uint32_t k = 0; k < parkWords_; ++k) {
            // Row bits of inputs re-armed some other way are stale;
            // the parked set filters them.
            const BitVec::Word w = row[k] & parked[k];
            row[k] = 0;
            parked[k] &= ~w;
            wait[k] |= w;
        }
    }

    /**
     * One arbitration cycle. @p pick(i) returns the output waiting
     * input @p i requests, or kNoRequest (it stays waiting); it runs
     * in ascending input order. @p on_grant(i, out) runs for each
     * winner, ascending, once the core has booked the connection. A
     * request-free cycle is accounted with advanceIdle(1): an
     * all-kNoRequest arbitration is state-neutral in every fabric.
     */
    template <typename Pick, typename OnGrant>
    void
    arbitrate(Pick &&pick, OnGrant &&on_grant)
    {
#ifdef HIRISE_CHECK_ENABLED
        checkParked(pick);
#endif
        std::size_t n = 0;
        waiting_.forEachSet([&](std::uint32_t i) {
            const std::uint32_t out = pick(i);
            if (out == kNoRequest) {
                if (parkPending_)
                    park(i);
                return;
            }
            sim_assert(!parkPending_, "input %u parked on a request", i);
            req_[i] = out;
            active_[n++] = i;
        });
        if (n == 0) {
            fabric_->advanceIdle(1);
            return;
        }
        applyGrants(fabric_->arbitrateActive(req_, active_.first(n)),
                    on_grant);
        for (std::uint32_t i : active_.first(n))
            req_[i] = kNoRequest;
    }

    /** The dense reference form of arbitrate(): the free-output set is
     *  rebuilt from the fabric, every unconnected input is offered to
     *  @p pick, and Fabric::arbitrate sees the full request vector on
     *  every cycle. Nothing parks. Only the grant bookkeeping is
     *  shared. */
    template <typename Pick, typename OnGrant>
    void
    arbitrateDense(Pick &&pick, OnGrant &&on_grant)
    {
        resyncFreeOutputs();
        for (std::uint32_t i = 0; i < radix(); ++i) {
            req_[i] = connected_[i] ? kNoRequest : pick(i);
            parkPending_ = false;
        }
        applyGrants(fabric_->arbitrate(req_), on_grant);
        std::fill(req_.begin(), req_.end(), kNoRequest);
    }

    /** One data cycle: @p move(i) for each connected input, ascending,
     *  except those granted this cycle; @p move may release(i). */
    template <typename Move>
    void
    transfer(Move &&move)
    {
        // Word by word: connected and not granted this cycle. The word
        // is copied first, so release() may reset the current bit.
        BitVec::Word *granted = granted_.words();
        const BitVec::Word *conn = connected_.words();
        for (std::uint32_t k = 0; k < connected_.numWords(); ++k) {
            BitVec::Word w = conn[k] & ~granted[k];
            granted[k] = 0;
            for (; w; w &= w - 1)
                move(k * BitVec::kWordBits +
                     static_cast<std::uint32_t>(std::countr_zero(w)));
        }
#ifdef HIRISE_CHECK_ENABLED
        for (std::uint32_t o = 0; o < radix(); ++o)
            sim_assert(free_[o] == !fabric_->outputBusy(o),
                       "free-output bit %u out of sync", o);
#endif
    }

    /** Tail flit sent: tear @p i 's connection down. With @p has_work
     *  the input requests again from the next cycle. */
    void
    release(std::uint32_t i, bool has_work)
    {
        fabric_->release(i, held_[i]);
        disconnect(i, has_work);
    }

    /** The fabric broke @p bc itself (a channel failed under it): book
     *  the teardown without a release() call. */
    void
    dropBroken(const BrokenConn &bc, bool has_work)
    {
        sim_assert(connected_[bc.input] && held_[bc.input] == bc.output,
                   "broken connection %u->%u is not held", bc.input,
                   bc.output);
        disconnect(bc.input, has_work);
    }

    /** Account @p n request-free cycles skipped in one jump. */
    void skipIdleCycles(std::uint64_t n) { fabric_->advanceIdle(n); }

    /** Rebuild the free-output set from the fabric's holders. */
    void
    resyncFreeOutputs()
    {
        for (std::uint32_t o = 0; o < radix(); ++o)
            free_.assign(o, !fabric_->outputBusy(o));
    }

    /** Set input @p i 's state between cycles (snapshot restore): it
     *  holds @p held_output, or no connection for kNoRequest. */
    void
    restoreInput(std::uint32_t i, std::uint32_t held_output,
                 bool has_work)
    {
        const bool conn = held_output != kNoRequest;
        connected_.assign(i, conn);
        held_[i] = held_output;
        waiting_.assign(i, !conn && has_work);
        clearBit(parkedSet(), i);
    }

  private:
    // Bit i of a word array: a parking row or the parked set.
    static bool
    testBit(const BitVec::Word *w, std::uint32_t i)
    {
        return (w[i / BitVec::kWordBits] >> (i % BitVec::kWordBits)) & 1u;
    }
    static void
    setBit(BitVec::Word *w, std::uint32_t i)
    {
        w[i / BitVec::kWordBits] |= BitVec::Word(1)
                                    << (i % BitVec::kWordBits);
    }
    static void
    clearBit(BitVec::Word *w, std::uint32_t i)
    {
        w[i / BitVec::kWordBits] &=
            ~(BitVec::Word(1) << (i % BitVec::kWordBits));
    }

    BitVec::Word *
    parkRow(std::uint32_t o)
    {
        return park_.data() + std::size_t(o) * parkWords_;
    }
    BitVec::Word *
    parkedSet()
    {
        return park_.data() + std::size_t(radix()) * parkWords_;
    }
    const BitVec::Word *
    parkedSet() const
    {
        return park_.data() + std::size_t(radix()) * parkWords_;
    }

    /** Waiting input @p i 's pick failed and named its outputs. */
    void
    park(std::uint32_t i)
    {
        parkPending_ = false;
        parking_ = true;
        waiting_.reset(i);
        setBit(parkedSet(), i);
    }

#ifdef HIRISE_CHECK_ENABLED
    /** A parked input must still fail: nothing it parked on changed. */
    template <typename Pick>
    void
    checkParked(Pick &pick)
    {
        for (std::uint32_t i = 0; i < radix(); ++i) {
            if (!parked(i))
                continue;
            sim_assert(!waiting_[i] && !connected_[i],
                       "parked input %u waits or holds", i);
            sim_assert(pick(i) == kNoRequest,
                       "parked input %u would be granted", i);
            parkPending_ = false;
        }
    }
#endif

    template <typename OnGrant>
    void
    applyGrants(const BitVec &grant, OnGrant &on_grant)
    {
#ifdef HIRISE_CHECK_ENABLED
        check::verifyGrantMatching(
            std::span<const std::uint32_t>(req_), grant, radix(),
            [this](std::uint32_t o) { return fabric_->outputHolder(o); });
#endif
        grant.forEachSet([&](std::uint32_t i) {
            waiting_.reset(i);
            connected_.set(i);
            granted_.set(i);
            held_[i] = req_[i];
            free_.reset(req_[i]);
            on_grant(i, req_[i]);
        });
    }

    void
    disconnect(std::uint32_t i, bool has_work)
    {
        free_.set(held_[i]);
        connected_.reset(i);
        waiting_.assign(i, has_work);
        if (parking_)
            wakeOutput(held_[i]);
    }

    std::unique_ptr<Fabric> fabric_;
    BitVec waiting_;   //!< inputs with work and no connection
    BitVec connected_; //!< inputs holding a connection
    BitVec granted_;   //!< connected in this cycle's arbitration
    BitVec free_;      //!< outputs no connection holds
    // One allocation keeps a router's per-input arrays on few cache
    // lines (GraphNoc steps dozens of small routers). The spans view
    // slots_: a move keeps its buffer, and fabric_ rules out copies.
    std::vector<std::uint32_t> slots_;
    std::span<std::uint32_t> req_;    //!< kNoRequest between cycles
    std::span<std::uint32_t> held_;   //!< output per connected input
    std::span<std::uint32_t> active_; //!< requesting inputs, ascending
    // Parking state, one allocation: per output, a row of the inputs
    // parked on it (bits of re-armed inputs may linger), then the set
    // of parked inputs.
    std::vector<BitVec::Word> park_;
    std::uint32_t parkWords_ = 0; //!< words per row
    bool parking_ = false;     //!< some input has parked
    bool parkPending_ = false; //!< the current pick called parkOn
};

} // namespace hirise::fabric

#endif // HIRISE_FABRIC_SWITCH_CORE_HH
