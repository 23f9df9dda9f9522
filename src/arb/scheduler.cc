#include "arb/scheduler.hh"

#include "common/logging.hh"

namespace hirise::arb {

namespace {

/** First set bit of @p v at or circularly after @p start, or kNpos. */
std::uint32_t
circularFirst(const BitVec &v, std::uint32_t start)
{
    std::uint32_t i =
        start == 0 ? v.firstSet() : v.nextSet(start - 1);
    if (i != BitVec::kNpos || start == 0)
        return i;
    return v.firstSet(); // wrap: any hit here is < start
}

/** Index of the @p idx-th (0-based) set bit; @pre idx < v.count(). */
std::uint32_t
nthSet(const BitVec &v, std::uint32_t idx)
{
    std::uint32_t b = v.firstSet();
    while (idx--)
        b = v.nextSet(b);
    return b;
}

} // namespace

// ---------------------------------------------------------------------
// LRG
// ---------------------------------------------------------------------

void
LrgScheduler::schedule(std::span<const std::uint32_t> req,
                       std::span<const std::uint32_t> active,
                       std::span<std::uint32_t> holder, BitVec &grant)
{
    // Columns are independent and each column's winner is the minimum
    // of distinct stamps, so one pass in any order gives what the
    // differential oracle's ascending column-by-column pick-then-demote
    // gives.
    std::size_t n = 0;
    for (std::uint32_t i : active) {
        sim_assert(i < n_, "active input %u out of range", i);
        const std::uint32_t o = req[i];
        sim_assert(o < n_, "input %u requests bad output %u", i, o);
        if (holder[o] != kNone)
            continue; // held output: the request loses this cycle
        std::uint32_t &b = best_[o];
        if (b == kNone) {
            b = i;
            touched_[n++] = o;
        } else if (arb_[o].outranks(i, b)) {
            b = i;
        }
    }
    for (std::uint32_t o : std::span(touched_).first(n)) {
        const std::uint32_t w = best_[o];
        best_[o] = kNone;
        arb_[o].update(w);
        holder[o] = w;
        grant.set(w);
    }
}

// ---------------------------------------------------------------------
// Column binning (iSLIP, PIM, wavefront)
// ---------------------------------------------------------------------

void
ColumnScheduler::schedule(std::span<const std::uint32_t> req,
                          std::span<const std::uint32_t> active,
                          std::span<std::uint32_t> holder, BitVec &grant)
{
    // A column's mask is cleared lazily when it first gains a
    // requestor this cycle; active is ascending, so every column
    // lists its requestors in input order.
    contended_.clear();
    for (std::uint32_t i : active) {
        sim_assert(i < n_, "active input %u out of range", i);
        const std::uint32_t o = req[i];
        sim_assert(o < n_, "input %u requests bad output %u", i, o);
        if (holder[o] != kNone)
            continue; // held output: the request loses this cycle
        if (!contended_[o]) {
            contended_.set(o);
            want_[o].clear();
        }
        want_[o].set(i);
    }
    match(contended_, want_, winner_);
    contended_.forEachSet([&](std::uint32_t o) {
        const std::uint32_t w = winner_[o];
        if (w == kNone)
            return;
        holder[o] = w;
        grant.set(w);
    });
}

// ---------------------------------------------------------------------
// iSLIP
// ---------------------------------------------------------------------

void
IslipScheduler::match(const BitVec &contended,
                      std::span<const BitVec> want,
                      std::span<std::uint32_t> winner)
{
    contended.forEachSet([&](std::uint32_t o) { winner[o] = kNone; });
    matchedIn_.clear();
    outPending_.copyFrom(contended);
    std::uint32_t pending = contended.count();

    for (std::uint32_t it = 0; it < iters_ && pending; ++it) {
        // Grant phase: each unmatched column offers to the first
        // still-unmatched requestor at or after its grant pointer.
        grantedIn_.clear();
        bool anyGrant = false;
        outPending_.forEachSet([&](std::uint32_t o) {
            cand_.copyFrom(want[o]);
            cand_.andNot(matchedIn_);
            std::uint32_t i = circularFirst(cand_, grantPtr_[o]);
            if (i == BitVec::kNpos)
                return;
            anyGrant = true;
            // Accept phase preview: an input takes the granting
            // output circularly closest to its accept pointer.
            std::uint32_t d = o >= acceptPtr_[i]
                                  ? o - acceptPtr_[i]
                                  : o + n_ - acceptPtr_[i];
            if (!grantedIn_[i]) {
                grantedIn_.set(i);
                bestOut_[i] = o;
                bestDist_[i] = d;
            } else if (d < bestDist_[i]) {
                bestOut_[i] = o;
                bestDist_[i] = d;
            }
        });
        if (!anyGrant)
            break;

        // Accept phase: commit each granted input's closest offer.
        // Pointers move one past the match only on first-iteration
        // accepts (McKeown's rule; later iterations must not move
        // them or the desynchronization property is lost).
        grantedIn_.forEachSet([&](std::uint32_t i) {
            std::uint32_t o = bestOut_[i];
            winner[o] = i;
            matchedIn_.set(i);
            outPending_.reset(o);
            --pending;
            if (it == 0) {
                grantPtr_[o] = i + 1 == n_ ? 0 : i + 1;
                acceptPtr_[i] = o + 1 == n_ ? 0 : o + 1;
            }
        });
    }
}

// ---------------------------------------------------------------------
// PIM
// ---------------------------------------------------------------------

void
PimScheduler::match(const BitVec &contended,
                    std::span<const BitVec> want,
                    std::span<std::uint32_t> winner)
{
    contended.forEachSet([&](std::uint32_t o) { winner[o] = kNone; });
    matchedIn_.clear();
    outPending_.copyFrom(contended);
    std::uint32_t pending = contended.count();

    for (std::uint32_t r = 0; r < rounds_ && pending; ++r) {
        // Grant phase, ascending columns: one draw per column with
        // candidates, uniform over the still-unmatched requestors.
        grantedIn_.clear();
        bool anyGrant = false;
        outPending_.forEachSet([&](std::uint32_t o) {
            cand_.copyFrom(want[o]);
            cand_.andNot(matchedIn_);
            std::uint32_t m = cand_.count();
            if (m == 0)
                return;
            auto idx = static_cast<std::uint32_t>(
                counterBelow(counterDrawKeyed(key_, tick_++), m));
            std::uint32_t i = nthSet(cand_, idx);
            grantedIn_.set(i);
            grants_[i].push_back(o);
            anyGrant = true;
        });
        if (!anyGrant)
            break;

        // Accept phase, ascending inputs: one draw per granted input,
        // uniform over the columns that granted it.
        grantedIn_.forEachSet([&](std::uint32_t i) {
            auto &g = grants_[i];
            auto idx = static_cast<std::uint32_t>(counterBelow(
                counterDrawKeyed(key_, tick_++), g.size()));
            std::uint32_t o = g[idx];
            winner[o] = i;
            matchedIn_.set(i);
            outPending_.reset(o);
            --pending;
            g.clear();
        });
    }
}

// ---------------------------------------------------------------------
// Wavefront
// ---------------------------------------------------------------------

void
WavefrontScheduler::match(const BitVec &contended,
                          std::span<const BitVec> want,
                          std::span<std::uint32_t> winner)
{
    contended.forEachSet([&](std::uint32_t o) { winner[o] = kNone; });
    matchedIn_.clear();
    std::uint32_t pending = contended.count();

    for (std::uint32_t k = 0; k < n_ && pending; ++k) {
        std::uint32_t diag = prio_ + k >= n_ ? prio_ + k - n_
                                             : prio_ + k;
        // Cells on one diagonal (i + o == diag mod n) are mutually
        // conflict-free; grant every requested free one.
        contended.forEachSet([&](std::uint32_t o) {
            if (winner[o] != kNone)
                return;
            std::uint32_t i =
                diag >= o ? diag - o : diag + n_ - o;
            if (!matchedIn_[i] && want[o][i]) {
                winner[o] = i;
                matchedIn_.set(i);
                --pending;
            }
        });
    }
    prio_ = prio_ + 1 == n_ ? 0 : prio_ + 1;
}

// ---------------------------------------------------------------------

std::unique_ptr<CrossbarScheduler>
makeScheduler(const SwitchSpec &spec)
{
    switch (spec.arb) {
      case ArbScheme::Lrg:
        return std::make_unique<LrgScheduler>(spec.radix);
      case ArbScheme::Islip:
        return std::make_unique<IslipScheduler>(spec.radix,
                                                spec.schedIters);
      case ArbScheme::Pim:
        return std::make_unique<PimScheduler>(
            spec.radix, spec.schedIters, spec.schedSeed);
      case ArbScheme::Wavefront:
        return std::make_unique<WavefrontScheduler>(spec.radix);
      default:
        break;
    }
    fatal("no single-stage crossbar scheduler for %s", toString(spec.arb));
}

} // namespace hirise::arb
