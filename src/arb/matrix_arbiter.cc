#include "arb/matrix_arbiter.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/simd.hh"

namespace hirise::arb {

MatrixArbiter::MatrixArbiter(std::uint32_t n)
    : n_(n), rowWords_((n + kWordBits - 1) / kWordBits),
      prio_(std::size_t(n) * rowWords_, 0)
{
    sim_assert(n >= 1, "arbiter needs at least one port");
    // Initial strict order: lower index outranks higher index.
    for (std::uint32_t i = 0; i < n_; ++i)
        for (std::uint32_t j = i + 1; j < n_; ++j)
            set(i, j, true);
}

std::uint32_t
MatrixArbiter::pick(const BitVec &req) const
{
    sim_assert(req.size() == n_, "request vector size %u != %u",
               req.size(), n_);
    const Word *rw = req.words();
    for (std::uint32_t k = 0; k < rowWords_; ++k) {
        Word cand = rw[k];
        while (cand) {
            std::uint32_t bit = static_cast<std::uint32_t>(
                std::countr_zero(cand));
            cand &= cand - 1;
            std::uint32_t i = k * kWordBits + bit;
            // i wins iff no other requestor outranks it:
            // (req & ~row(i)) must contain no bit besides i itself.
            if (!simd::losingAny(rw, row(i), rowWords_, k,
                                 Word(1) << bit))
                return i;
        }
    }
    return kNone;
}

std::uint32_t
MatrixArbiter::pick(const std::vector<bool> &req) const
{
    sim_assert(req.size() == n_, "request vector size %zu != %u",
               req.size(), n_);
    BitVec b(n_);
    for (std::uint32_t i = 0; i < n_; ++i)
        if (req[i])
            b.set(i);
    return pick(b);
}

void
MatrixArbiter::update(std::uint32_t winner)
{
    sim_assert(winner < n_, "winner %u out of range", winner);
    // Row write: the winner now outranks nobody.
    Word *rw = row(winner);
    std::fill(rw, rw + rowWords_, 0);
    // Column write: everyone else outranks the winner.
    Word m = Word(1) << (winner % kWordBits);
    std::uint32_t wk = winner / kWordBits;
    for (std::uint32_t j = 0; j < n_; ++j)
        row(j)[wk] |= m;
    row(winner)[wk] &= ~m; // keep the diagonal zero
}

bool
MatrixArbiter::outranks(std::uint32_t i, std::uint32_t j) const
{
    sim_assert(i < n_ && j < n_ && i != j, "bad pair %u,%u", i, j);
    return at(i, j);
}

std::vector<std::uint32_t>
MatrixArbiter::order() const
{
    std::vector<std::uint32_t> idx(n_);
    for (std::uint32_t i = 0; i < n_; ++i)
        idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return at(a, b);
              });
    return idx;
}

} // namespace hirise::arb
