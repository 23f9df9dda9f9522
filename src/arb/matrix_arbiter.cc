#include "arb/matrix_arbiter.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace hirise::arb {

namespace {

using Word = BitVec::Word;
constexpr std::uint32_t kWordBits = BitVec::kWordBits;

} // namespace

MatrixArbiter::MatrixArbiter(std::uint32_t n)
    : n_(n), stamp_(n), next_(n)
{
    sim_assert(n >= 1, "arbiter needs at least one port");
    // Initial strict order: lower index outranks higher index.
    std::iota(stamp_.begin(), stamp_.end(), std::uint64_t(0));
}

std::uint32_t
MatrixArbiter::pick(const BitVec &req) const
{
    sim_assert(req.size() == n_, "request vector size %u != %u",
               req.size(), n_);
    std::uint32_t best = kNone;
    std::uint64_t best_stamp = ~std::uint64_t(0);
    req.forEachSet([&](std::uint32_t i) {
        if (stamp_[i] < best_stamp) {
            best_stamp = stamp_[i];
            best = i;
        }
    });
    return best;
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

std::vector<std::uint32_t>
MatrixArbiter::order() const
{
    std::vector<std::uint32_t> idx(n_);
    std::iota(idx.begin(), idx.end(), 0u);
    std::sort(idx.begin(), idx.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return stamp_[a] < stamp_[b];
              });
    return idx;
}

void
MatrixArbiter::save(snap::Writer &w) const
{
    const std::uint32_t words = (n_ + kWordBits - 1) / kWordBits;
    std::vector<Word> m(std::size_t(n_) * words, 0);
    for (std::uint32_t i = 0; i < n_; ++i) {
        for (std::uint32_t j = 0; j < n_; ++j) {
            if (stamp_[i] < stamp_[j])
                m[std::size_t(i) * words + j / kWordBits] |=
                    Word(1) << (j % kWordBits);
        }
    }
    w.vec(m);
}

void
MatrixArbiter::load(snap::Reader &r)
{
    const std::uint32_t words = (n_ + kWordBits - 1) / kWordBits;
    std::vector<Word> m;
    r.vec(m);
    sim_assert(m.size() == std::size_t(n_) * words,
               "matrix-arbiter snapshot shape mismatch");
    // A requestor's rank is the number of requestors outranking it,
    // i.e. the set bits of its column.
    for (std::uint32_t j = 0; j < n_; ++j) {
        std::uint64_t rank = 0;
        for (std::uint32_t i = 0; i < n_; ++i)
            rank += (m[std::size_t(i) * words + j / kWordBits] >>
                     (j % kWordBits)) & 1u;
        stamp_[j] = rank;
    }
    next_ = n_;
}

} // namespace hirise::arb
