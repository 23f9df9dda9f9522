/**
 * @file
 * Matrix (least-recently-granted) arbiter, the building block of the
 * Swizzle-Switch crosspoint priority vectors (paper section II-A).
 */

#ifndef HIRISE_ARB_MATRIX_ARBITER_HH
#define HIRISE_ARB_MATRIX_ARBITER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.hh"

namespace hirise::arb {

/**
 * Classic matrix arbiter implementing LRG priority over n requestors.
 *
 * The hardware state is a strict total order encoded as a triangular
 * matrix: row i bit j == true means i currently outranks j, and
 * granting i moves it behind everyone (least recently granted wins
 * next time). That order is exactly "older last grant outranks newer",
 * so it is kept as one last-grant stamp per requestor: pick() takes
 * the minimum stamp over the requestors, and update() is one store
 * instead of a row clear plus an n-row column write. The matrix
 * exists only in snapshots, whose bytes are the matrix's.
 *
 * pick() is const so callers can decompose arbitration (e.g. Hi-Rise
 * only updates the local-switch LRG when the inter-layer stage
 * confirms the end-to-end win, section III-B1).
 */
class MatrixArbiter
{
  public:
    static constexpr std::uint32_t kNone = ~0u;

    explicit MatrixArbiter(std::uint32_t n);

    std::uint32_t size() const { return n_; }

    /**
     * Highest-priority requestor, or kNone when req is empty.
     * @param req requestor bitmap, req.size() == size()
     */
    std::uint32_t pick(const BitVec &req) const;

    /** Convenience overload (tests, cold paths): allocates. */
    std::uint32_t pick(const std::vector<bool> &req) const;

    /**
     * Highest-priority requestor among @p candidates (distinct indices
     * below size(), in any order), or kNone when the list is empty.
     * Costs O(|candidates|) however large size() is.
     */
    std::uint32_t
    pick(std::span<const std::uint32_t> candidates) const
    {
        std::uint32_t best = kNone;
        std::uint64_t best_stamp = ~std::uint64_t(0);
        for (std::uint32_t i : candidates) {
            sim_assert(i < n_, "candidate %u out of range", i);
            if (stamp_[i] < best_stamp) {
                best_stamp = stamp_[i];
                best = i;
            }
        }
        return best;
    }

    /** Demote @p winner to the lowest priority. */
    void
    update(std::uint32_t winner)
    {
        sim_assert(winner < n_, "winner %u out of range", winner);
        stamp_[winner] = next_++;
    }

    /** Does i currently outrank j? (i != j) */
    bool
    outranks(std::uint32_t i, std::uint32_t j) const
    {
        sim_assert(i < n_ && j < n_ && i != j, "bad pair %u,%u", i, j);
        return stamp_[i] < stamp_[j];
    }

    /** Full priority order, highest first (for tests/debug). */
    std::vector<std::uint32_t> order() const;

    /** Writes the priority matrix: n rows of ceil(n/64) words, row i
     *  bit j set when i outranks j. */
    void save(snap::Writer &w) const;
    /** Reads save()'s matrix and ranks it back into stamps. */
    void load(snap::Reader &r);

  private:
    std::uint32_t n_;
    /** Grant stamp per requestor; lower outranks higher. Distinct,
     *  and all below next_. */
    std::vector<std::uint64_t> stamp_;
    std::uint64_t next_;
};

} // namespace hirise::arb

#endif // HIRISE_ARB_MATRIX_ARBITER_HH
