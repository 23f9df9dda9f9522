/**
 * @file
 * Word-parallel bitset for the arbitration hot path. Unlike
 * std::vector<bool>, the word array is directly addressable, so
 * request masks combine with priority rows via uint64 AND/ANDNOT and
 * winners are located with count-trailing-zeros instead of per-bit
 * loads. Capacity is fixed at resize() time; all per-bit and per-word
 * operations are allocation-free, which is what keeps the simulator's
 * steady-state cycle loop off the heap.
 */

#ifndef HIRISE_COMMON_BITVEC_HH
#define HIRISE_COMMON_BITVEC_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/snapshot.hh"

namespace hirise {

class BitVec
{
  public:
    using Word = std::uint64_t;
    static constexpr std::uint32_t kWordBits = 64;
    static constexpr std::uint32_t kNpos = ~0u;

    BitVec() = default;
    explicit BitVec(std::uint32_t nbits) { resize(nbits); }

    /** Set the bit capacity; all bits become zero. The only member
     *  that may allocate — call it once at construction time. */
    void
    resize(std::uint32_t nbits)
    {
        nbits_ = nbits;
        w_.assign((nbits + kWordBits - 1) / kWordBits, 0);
    }

    std::uint32_t size() const { return nbits_; }
    std::uint32_t numWords() const
    {
        return static_cast<std::uint32_t>(w_.size());
    }

    bool
    operator[](std::uint32_t i) const
    {
        return (w_[i / kWordBits] >> (i % kWordBits)) & 1u;
    }
    bool test(std::uint32_t i) const { return (*this)[i]; }

    void
    set(std::uint32_t i)
    {
        sim_assert(i < nbits_, "bit %u out of range", i);
        w_[i / kWordBits] |= Word(1) << (i % kWordBits);
    }
    void
    reset(std::uint32_t i)
    {
        sim_assert(i < nbits_, "bit %u out of range", i);
        w_[i / kWordBits] &= ~(Word(1) << (i % kWordBits));
    }
    void
    assign(std::uint32_t i, bool v)
    {
        v ? set(i) : reset(i);
    }

    /** Zero every bit, keeping the capacity. */
    void
    clear()
    {
        for (auto &w : w_)
            w = 0;
    }

    /** Set every bit in [0, size()). */
    void
    fill()
    {
        for (auto &w : w_)
            w = ~Word(0);
        trimTail();
    }

    void
    save(snap::Writer &w) const
    {
        w.u32(nbits_);
        w.vec(w_);
    }

    void
    load(snap::Reader &r)
    {
        std::uint32_t nbits = r.u32();
        sim_assert(nbits == nbits_,
                   "bitvec snapshot has %u bits, expected %u", nbits,
                   nbits_);
        r.vec(w_);
    }

    bool
    any() const
    {
        for (Word w : w_)
            if (w)
                return true;
        return false;
    }
    bool none() const { return !any(); }

    std::uint32_t
    count() const
    {
        std::uint32_t n = 0;
        for (Word w : w_)
            n += static_cast<std::uint32_t>(std::popcount(w));
        return n;
    }

    /** Lowest set bit, or kNpos. */
    std::uint32_t
    firstSet() const
    {
        for (std::uint32_t k = 0; k < w_.size(); ++k) {
            if (w_[k])
                return k * kWordBits +
                       static_cast<std::uint32_t>(
                           std::countr_zero(w_[k]));
        }
        return kNpos;
    }

    /** Lowest set bit strictly above @p i, or kNpos. */
    std::uint32_t
    nextSet(std::uint32_t i) const
    {
        std::uint32_t k = (i + 1) / kWordBits;
        if (k >= w_.size())
            return kNpos;
        Word w = w_[k] & (~Word(0) << ((i + 1) % kWordBits));
        for (;;) {
            if (w)
                return k * kWordBits +
                       static_cast<std::uint32_t>(std::countr_zero(w));
            if (++k >= w_.size())
                return kNpos;
            w = w_[k];
        }
    }

    /** Call @p fn(index) for each set bit in ascending order. */
    template <typename Fn>
    void
    forEachSet(Fn fn) const
    {
        for (std::uint32_t k = 0; k < w_.size(); ++k) {
            Word w = w_[k];
            while (w) {
                fn(k * kWordBits +
                   static_cast<std::uint32_t>(std::countr_zero(w)));
                w &= w - 1;
            }
        }
    }

    // -- word-parallel combination (operands must match in size) ------
    // The fabric phase-1 column binning and phase-2 contended-output
    // walks are built from exactly these ops plus clear()/copyFrom().
    BitVec &
    operator&=(const BitVec &o)
    {
        sim_assert(o.nbits_ == nbits_, "size mismatch");
        for (std::size_t k = 0; k < w_.size(); ++k)
            w_[k] &= o.w_[k];
        return *this;
    }
    BitVec &
    operator|=(const BitVec &o)
    {
        sim_assert(o.nbits_ == nbits_, "size mismatch");
        for (std::size_t k = 0; k < w_.size(); ++k)
            w_[k] |= o.w_[k];
        return *this;
    }
    /** this &= ~o */
    BitVec &
    andNot(const BitVec &o)
    {
        sim_assert(o.nbits_ == nbits_, "size mismatch");
        for (std::size_t k = 0; k < w_.size(); ++k)
            w_[k] &= ~o.w_[k];
        return *this;
    }

    bool
    intersects(const BitVec &o) const
    {
        sim_assert(o.nbits_ == nbits_, "size mismatch");
        for (std::size_t k = 0; k < w_.size(); ++k)
            if (w_[k] & o.w_[k])
                return true;
        return false;
    }

    bool
    operator==(const BitVec &o) const
    {
        return nbits_ == o.nbits_ && w_ == o.w_;
    }

    /** Copy bit values from @p o without changing capacity. */
    void
    copyFrom(const BitVec &o)
    {
        sim_assert(o.nbits_ == nbits_, "size mismatch");
        for (std::size_t k = 0; k < w_.size(); ++k)
            w_[k] = o.w_[k];
    }

    const Word *words() const { return w_.data(); }
    Word *words() { return w_.data(); }

  private:
    void
    trimTail()
    {
        std::uint32_t tail = nbits_ % kWordBits;
        if (tail && !w_.empty())
            w_.back() &= (Word(1) << tail) - 1;
    }

    std::uint32_t nbits_ = 0;
    std::vector<Word> w_;
};

} // namespace hirise

#endif // HIRISE_COMMON_BITVEC_HH
