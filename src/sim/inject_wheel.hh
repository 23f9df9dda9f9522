/**
 * @file
 * The event-driven NetworkSim's injection scheduler: a timing wheel
 * holding each participating input's next injection cycle.
 *
 * Every memoryless pattern injects by a Bernoulli draw on the input's
 * counter stream (traffic/pattern.hh), so the cycle an input next
 * injects at is a pure function of (seed, input, cycle) and can be
 * found ahead of time by scanning the stream. The wheel keeps one
 * entry per input in a slot per cycle, kSpan cycles ahead:
 *
 * - a slot is an input bitset, so inserting is one bit set and a
 *   cycle's due inputs come out in ascending input order, which keeps
 *   packet ids identical to the dense core's per-cycle scan;
 * - a one-bit-per-slot summary lets idle fast-forward find the next
 *   occupied slot a word at a time;
 * - an input whose scan finds no injection before the wheel's horizon
 *   is parked on the horizon cycle as a probe, and its scan resumes
 *   from there when the probe comes due;
 * - each input's inject-lane key and the Bernoulli threshold are
 *   cached, so the scan costs one hash per cycle drawn, and an entry
 *   that is not a probe injects without drawing again.
 */

#ifndef HIRISE_SIM_INJECT_WHEEL_HH
#define HIRISE_SIM_INJECT_WHEEL_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/bitvec.hh"
#include "common/random.hh"
#include "net/packet.hh"
#include "traffic/pattern.hh"

namespace hirise::sim {

class InjectionWheel
{
  public:
    using Word = BitVec::Word;

    /** Cycles the wheel looks ahead. Shorter spans park more inputs
     *  as probes at very low loads (a 64-slot wheel ran ~19% slower
     *  than this one at load 0.001). */
    static constexpr std::uint32_t kSpan = 1024;
    static constexpr net::Cycle kNever = ~net::Cycle(0);

    /** Schedule every participating input of @p pat from cycle
     *  @p now on. @pre pat.memoryless(). */
    void
    init(const traffic::TrafficPattern &pat, std::uint32_t radix,
         double rate, std::uint64_t seed, net::Cycle now)
    {
        words_ = (radix + kWordBits - 1) / kWordBits;
        slots_.assign(std::size_t(kSpan) * words_, 0);
        summary_.assign(kSpan / kWordBits, 0);
        probe_.resize(radix);
        keys_.assign(radix, 0);
        thr_ = bernoulliThreshold(rate);
        for (std::uint32_t i = 0; i < radix; ++i) {
            keys_[i] = counterKey(
                seed, traffic::TrafficPattern::lane(
                          i, traffic::TrafficPattern::kLaneInject));
            if (pat.participates(i))
                schedule(i, now, now);
        }
    }

    /**
     * Pop cycle @p now's slot, rescheduling each popped input, and
     * call @p inject_word(k, bits) for each word k of inputs
     * [64k, 64k + 64) holding inputs that inject at @p now (bit b for
     * input 64k + b), in ascending word order. Must be called once
     * for every cycle that nextDue() does not skip.
     */
    template <typename InjectWord>
    void
    popDue(net::Cycle now, InjectWord &&inject_word)
    {
        const std::uint32_t s = slotOf(now);
        const Word sbit = Word(1) << (s % kWordBits);
        Word &sum = summary_[s / kWordBits];
        if (!(sum & sbit))
            return;
        sum &= ~sbit;
        Word *slot = slots_.data() + std::size_t(s) * words_;
        for (std::uint32_t k = 0; k < words_; ++k) {
            const Word due = slot[k];
            if (!due)
                continue;
            slot[k] = 0; // reschedules never land in this slot
            if (thr_ == kAlways) {
                // Every draw passes: each input injects again next
                // cycle, and no input is ever a probe.
                parkWord(k, due, slotOf(now + 1));
                inject_word(k, due);
                continue;
            }
            Word hits = due;
            for (Word w = due; w; w &= w - 1) {
                const std::uint32_t i =
                    k * kWordBits +
                    static_cast<std::uint32_t>(std::countr_zero(w));
                if (probe_.test(i)) {
                    // Resume the scan at the horizon cycle itself.
                    probe_.reset(i);
                    const net::Cycle t = scan(i, now, now + kSpan - 1);
                    if (t != now) {
                        park(i, t, now);
                        hits &= ~(w & -w);
                        continue;
                    }
                }
                schedule(i, now + 1, now);
            }
            if (hits)
                inject_word(k, hits);
        }
    }

    /** Earliest cycle >= @p now holding an entry, or kNever. */
    net::Cycle
    nextDue(net::Cycle now) const
    {
        const std::uint32_t s0 = slotOf(now);
        const std::uint32_t nw = kSpan / kWordBits;
        std::uint32_t k = s0 / kWordBits;
        Word w = summary_[k] & (~Word(0) << (s0 % kWordBits));
        for (std::uint32_t n = 0; n <= nw; ++n) {
            if (w) {
                const std::uint32_t s =
                    k * kWordBits +
                    static_cast<std::uint32_t>(std::countr_zero(w));
                return now + ((s - s0) & (kSpan - 1));
            }
            k = k + 1 == nw ? 0 : k + 1;
            w = summary_[k];
        }
        return kNever;
    }

  private:
    static constexpr std::uint32_t kWordBits = BitVec::kWordBits;
    /** bernoulliThreshold at load >= 1: every draw passes. */
    static constexpr std::uint64_t kAlways = std::uint64_t(1) << 53;

    static std::uint32_t
    slotOf(net::Cycle c)
    {
        return static_cast<std::uint32_t>(c) & (kSpan - 1);
    }

    /** First cycle in [from, limit) where input @p i injects, else
     *  @p limit: TrafficPattern::nextInjectionFrom on cached state. */
    net::Cycle
    scan(std::uint32_t i, net::Cycle from, net::Cycle limit) const
    {
        return thr_ == kAlways ? from
                               : counterNextPass(keys_[i], thr_, from, limit);
    }

    /** Enter input @p i at its next injection from cycle @p from on,
     *  within the horizon of cycle @p now's wheel. */
    void
    schedule(std::uint32_t i, net::Cycle from, net::Cycle now)
    {
        if (thr_ == 0)
            return; // load 0: the input never injects
        park(i, scan(i, from, now + kSpan - 1), now);
    }

    void
    park(std::uint32_t i, net::Cycle t, net::Cycle now)
    {
        if (t == now + kSpan - 1)
            probe_.set(i);
        parkWord(i / kWordBits, Word(1) << (i % kWordBits), slotOf(t));
    }

    void
    parkWord(std::uint32_t k, Word bits, std::uint32_t s)
    {
        slots_[std::size_t(s) * words_ + k] |= bits;
        summary_[s / kWordBits] |= Word(1) << (s % kWordBits);
    }

    std::uint32_t words_ = 0;   //!< words per slot
    std::vector<Word> slots_;   //!< kSpan slots x words_ input bits
    std::vector<Word> summary_; //!< one bit per non-empty slot
    BitVec probe_;              //!< inputs parked on the horizon
    std::vector<std::uint64_t> keys_; //!< inject-lane key per input
    std::uint64_t thr_ = 0;           //!< Bernoulli threshold
};

} // namespace hirise::sim

#endif // HIRISE_SIM_INJECT_WHEEL_HH
