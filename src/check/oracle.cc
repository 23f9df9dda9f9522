#include "check/oracle.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/random.hh"

namespace hirise::check {

const char *
toString(Mutation m)
{
    switch (m) {
      case Mutation::None: return "none";
      case Mutation::LrgUpdateOffByOne: return "lrg-update-off-by-one";
      case Mutation::ClrgHalveWinnerOnly: return "clrg-halve-winner-only";
      case Mutation::IslipGrantPtrStuck: return "islip-grant-ptr-stuck";
      case Mutation::PimReuseRoundRng: return "pim-reuse-round-rng";
      case Mutation::WavefrontStuckPriority:
        return "wavefront-stuck-priority";
      case Mutation::IsolationThresholdOffByOne:
        return "isolation-threshold-off-by-one";
      case Mutation::QueueIdOffByOne: return "queue-id-off-by-one";
    }
    return "?";
}

RefFabric::RefFabric(const SwitchSpec &spec, Mutation mut)
    : spec_(spec), mut_(mut), flat_(spec.topo != Topology::HiRise),
      ppl_(spec.portsPerLayer()), nlay_(spec.layers),
      chan_(spec.channels), ports_(spec.incomingChannels() + 1),
      holder_(spec.radix, kRefNone), heldChan_(spec.radix, kRefNone)
{
    spec_.validate();
    if (flat_) {
        if (spec.arb == ArbScheme::Lrg)
            colArb_.assign(spec.radix,
                           RefMatrixArbiter(spec.radix, mut_));
        islipGrant_.assign(spec.radix, 0);
        islipAccept_.assign(spec.radix, 0);
        pimKey_ = counterKey(spec.schedSeed, 0);
        return;
    }
    colArb_.assign(spec.radix, RefMatrixArbiter(ppl_, mut_));
    chanArb_.assign(std::size_t(nlay_) * nlay_ * chan_,
                    RefMatrixArbiter(ppl_, mut_));
    chanBusy_.assign(chanArb_.size(), false);
    chanFailed_.assign(chanArb_.size(), false);
    subLrg_.assign(spec.radix, RefMatrixArbiter(ports_, mut_));
    if (spec.arb == ArbScheme::Wlrg)
        subWins_.assign(spec.radix,
                        std::vector<std::uint32_t>(ports_, 0));
    if (spec.arb == ArbScheme::Clrg)
        subCounters_.assign(
            spec.radix,
            RefClassCounterBank(spec.radix, spec.clrgMaxCount, mut_));
}

std::uint32_t
RefFabric::subPort(std::uint32_t d, std::uint32_t s,
                   std::uint32_t k) const
{
    std::uint32_t s_rank = s < d ? s : s - 1;
    return s_rank * chan_ + k;
}

void
RefFabric::subPortOrigin(std::uint32_t d, std::uint32_t port,
                         std::uint32_t &s, std::uint32_t &k) const
{
    std::uint32_t s_rank = port / chan_;
    k = port % chan_;
    s = s_rank < d ? s_rank : s_rank + 1;
}

std::uint32_t
RefFabric::channelFor(std::uint32_t input, std::uint32_t output) const
{
    std::uint32_t k0;
    switch (spec_.alloc) {
      case ChannelAlloc::InputBinned:
        k0 = localIdx(input) % chan_;
        break;
      case ChannelAlloc::OutputBinned:
        k0 = localIdx(output) % chan_;
        break;
      default:
        return kRefNone;
    }
    std::uint32_t s = layerOf(input), d = layerOf(output);
    for (std::uint32_t i = 0; i < chan_; ++i) {
        std::uint32_t k = (k0 + i) % chan_;
        if (!chanFailed_[chanId(s, d, k)])
            return k;
    }
    return kRefNone;
}

void
RefFabric::failChannel(std::uint32_t src_layer, std::uint32_t dst_layer,
                       std::uint32_t k,
                       std::vector<RefBrokenConn> *broken)
{
    sim_assert(!flat_, "only HiRise has L2LCs");
    sim_assert(src_layer != dst_layer && src_layer < nlay_ &&
                   dst_layer < nlay_ && k < chan_,
               "bad channel (%u,%u,%u)", src_layer, dst_layer, k);
    std::uint32_t id = chanId(src_layer, dst_layer, k);
    if (chanFailed_[id])
        return;
    chanFailed_[id] = true;
    if (!chanBusy_[id])
        return;
    // Forced break: the in-flight connection pinning the channel is
    // torn down so the simulator can drop its packet.
    bool found = false;
    for (std::uint32_t lo = 0; lo < ppl_; ++lo) {
        std::uint32_t o = dst_layer * ppl_ + lo;
        if (heldChan_[o] != id)
            continue;
        if (broken)
            broken->push_back({holder_[o], o});
        holder_[o] = kRefNone;
        heldChan_[o] = kRefNone;
        found = true;
        break;
    }
    sim_assert(found, "busy channel %u pinned by no output", id);
    chanBusy_[id] = false;
}

void
RefFabric::recoverChannel(std::uint32_t src_layer,
                          std::uint32_t dst_layer, std::uint32_t k)
{
    sim_assert(!flat_, "only HiRise has L2LCs");
    sim_assert(src_layer != dst_layer && src_layer < nlay_ &&
                   dst_layer < nlay_ && k < chan_,
               "bad channel (%u,%u,%u)", src_layer, dst_layer, k);
    chanFailed_[chanId(src_layer, dst_layer, k)] = false;
}

void
RefFabric::release(std::uint32_t input, std::uint32_t output)
{
    sim_assert(output < spec_.radix && holder_[output] == input,
               "release of unheld connection %u->%u", input, output);
    holder_[output] = kRefNone;
    if (!flat_ && heldChan_[output] != kRefNone) {
        chanBusy_[heldChan_[output]] = false;
        heldChan_[output] = kRefNone;
    }
}

std::vector<bool>
RefFabric::arbitrate(const std::vector<std::uint32_t> &req)
{
    sim_assert(req.size() == spec_.radix, "bad request vector");
    return flat_ ? arbitrateFlat(req) : arbitrateHiRise(req);
}

void
RefFabric::collectFlat(const std::vector<std::uint32_t> &req,
                       std::vector<std::vector<bool>> &want,
                       std::vector<bool> &pending) const
{
    const std::uint32_t n = spec_.radix;
    want.assign(n, std::vector<bool>(n, false));
    pending.assign(n, false);
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t o = req[i];
        if (o == kRefNone || holder_[o] != kRefNone)
            continue; // idle input, or busy output: request loses
        want[o][i] = true;
        pending[o] = true;
    }
}

std::vector<bool>
RefFabric::islipFlat(const std::vector<std::uint32_t> &req)
{
    const std::uint32_t n = spec_.radix;
    std::vector<bool> grant(n, false);
    std::vector<std::vector<bool>> want;
    std::vector<bool> pending;
    collectFlat(req, want, pending);
    std::vector<bool> inputFree(n, true);

    for (std::uint32_t it = 0; it < spec_.schedIters; ++it) {
        // Grant phase: each pending column offers to the first free
        // requestor at or circularly after its grant pointer.
        std::vector<std::uint32_t> grantTo(n, kRefNone);
        bool anyGrant = false;
        for (std::uint32_t o = 0; o < n; ++o) {
            if (!pending[o])
                continue;
            for (std::uint32_t k = 0; k < n; ++k) {
                std::uint32_t i = (islipGrant_[o] + k) % n;
                if (want[o][i] && inputFree[i]) {
                    grantTo[o] = i;
                    anyGrant = true;
                    break;
                }
            }
        }
        if (!anyGrant)
            break;
        // Accept phase: each input takes the granting column
        // circularly closest to its accept pointer. Pointers move one
        // past the match on first-iteration accepts only.
        for (std::uint32_t i = 0; i < n; ++i) {
            if (!inputFree[i])
                continue;
            std::uint32_t best = kRefNone, bestDist = 0;
            for (std::uint32_t o = 0; o < n; ++o) {
                if (grantTo[o] != i)
                    continue;
                std::uint32_t d = (o + n - islipAccept_[i]) % n;
                if (best == kRefNone || d < bestDist) {
                    best = o;
                    bestDist = d;
                }
            }
            if (best == kRefNone)
                continue;
            holder_[best] = i;
            grant[i] = true;
            inputFree[i] = false;
            pending[best] = false;
            if (it == 0) {
                if (mut_ != Mutation::IslipGrantPtrStuck)
                    islipGrant_[best] = (i + 1) % n; // seeded bug:
                                                    // pointer stuck
                islipAccept_[i] = (best + 1) % n;
            }
        }
    }
    return grant;
}

std::vector<bool>
RefFabric::pimFlat(const std::vector<std::uint32_t> &req)
{
    const std::uint32_t n = spec_.radix;
    std::vector<bool> grant(n, false);
    std::vector<std::vector<bool>> want;
    std::vector<bool> pending;
    collectFlat(req, want, pending);
    std::vector<bool> inputFree(n, true);

    for (std::uint32_t r = 0; r < spec_.schedIters; ++r) {
        // Grant phase, ascending columns: one draw per column with
        // free requestors (even a single candidate consumes a draw —
        // the tick stream must be a function of the request history
        // alone so it matches the optimized scheduler's).
        std::vector<std::vector<std::uint32_t>> grantsOf(n);
        std::uint64_t lastGrantDraw = 0;
        bool anyGrant = false;
        for (std::uint32_t o = 0; o < n; ++o) {
            if (!pending[o])
                continue;
            std::vector<std::uint32_t> cands;
            for (std::uint32_t i = 0; i < n; ++i) {
                if (want[o][i] && inputFree[i])
                    cands.push_back(i);
            }
            if (cands.empty())
                continue;
            std::uint64_t draw = counterDrawKeyed(pimKey_, pimTick_++);
            lastGrantDraw = draw;
            auto idx = static_cast<std::uint32_t>(
                counterBelow(draw, cands.size()));
            grantsOf[cands[idx]].push_back(o);
            anyGrant = true;
        }
        if (!anyGrant)
            break;
        // Accept phase, ascending inputs: one draw per granted input.
        for (std::uint32_t i = 0; i < n; ++i) {
            if (grantsOf[i].empty())
                continue;
            std::uint64_t draw;
            if (mut_ == Mutation::PimReuseRoundRng) {
                draw = lastGrantDraw; // seeded bug: no fresh tick
            } else {
                draw = counterDrawKeyed(pimKey_, pimTick_++);
            }
            auto idx = static_cast<std::uint32_t>(
                counterBelow(draw, grantsOf[i].size()));
            std::uint32_t o = grantsOf[i][idx];
            holder_[o] = i;
            grant[i] = true;
            inputFree[i] = false;
            pending[o] = false;
        }
    }
    return grant;
}

std::vector<bool>
RefFabric::wavefrontFlat(const std::vector<std::uint32_t> &req)
{
    const std::uint32_t n = spec_.radix;
    std::vector<bool> grant(n, false);
    std::vector<std::vector<bool>> want;
    std::vector<bool> pending;
    collectFlat(req, want, pending);
    std::vector<bool> inputFree(n, true);

    for (std::uint32_t k = 0; k < n; ++k) {
        std::uint32_t diag = (wfPrio_ + k) % n;
        for (std::uint32_t o = 0; o < n; ++o) {
            if (!pending[o])
                continue;
            std::uint32_t i = (diag + n - o) % n;
            if (want[o][i] && inputFree[i]) {
                holder_[o] = i;
                grant[i] = true;
                inputFree[i] = false;
                pending[o] = false;
            }
        }
    }
    if (mut_ != Mutation::WavefrontStuckPriority)
        wfPrio_ = (wfPrio_ + 1) % n; // seeded bug: diagonal stuck
    return grant;
}

std::vector<bool>
RefFabric::arbitrateFlat(const std::vector<std::uint32_t> &req)
{
    const std::uint32_t n = spec_.radix;
    if (spec_.arb != ArbScheme::Lrg) {
        // Stateful schedulers only run on cycles with >= 1 request —
        // the same gate the optimized fabric applies, and the set of
        // cycles the event-driven core actually arbitrates.
        bool anyReq = false;
        for (std::uint32_t i = 0; i < n && !anyReq; ++i)
            anyReq = req[i] != kRefNone;
        if (!anyReq)
            return std::vector<bool>(n, false);
        switch (spec_.arb) {
          case ArbScheme::Islip: return islipFlat(req);
          case ArbScheme::Pim: return pimFlat(req);
          case ArbScheme::Wavefront: return wavefrontFlat(req);
          default:
            panic("bad flat scheme %s", toString(spec_.arb));
        }
    }
    std::vector<bool> grant(n, false);
    for (std::uint32_t o = 0; o < n; ++o) {
        if (holder_[o] != kRefNone)
            continue;
        std::vector<bool> want(n, false);
        bool any = false;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (req[i] == o) {
                want[i] = true;
                any = true;
            }
        }
        if (!any)
            continue;
        std::uint32_t w = colArb_[o].pick(want);
        if (w == kRefNone) {
            // Only reachable when a seeded mutation corrupted the
            // priority relation into a cycle; the missing grant is
            // itself the divergence the harness detects.
            sim_assert(mut_ != Mutation::None,
                       "contended column granted nothing");
            continue;
        }
        colArb_[o].update(w);
        holder_[o] = w;
        grant[w] = true;
    }
    return grant;
}

std::uint32_t
RefFabric::subArbitrate(std::uint32_t o, const std::vector<SubReq> &reqs)
{
    std::vector<bool> mask(ports_, false);
    if (spec_.arb == ArbScheme::Clrg) {
        // Coarse class priority first, LRG tie-break within the best
        // class; LRG updated on every grant (paper III-B4).
        std::uint32_t best = kRefNone;
        for (const auto &r : reqs) {
            if (r.valid)
                best = std::min(
                    best, subCounters_[o].classOf(r.primaryInput));
        }
        for (std::uint32_t p = 0; p < ports_; ++p) {
            if (reqs[p].valid &&
                subCounters_[o].classOf(reqs[p].primaryInput) == best)
                mask[p] = true;
        }
        std::uint32_t w = subLrg_[o].pick(mask);
        if (w == kRefNone) {
            sim_assert(mut_ != Mutation::None,
                       "class mask had a requestor");
            return kRefNone;
        }
        subLrg_[o].update(w);
        subCounters_[o].onWin(reqs[w].primaryInput);
        return w;
    }

    for (std::uint32_t p = 0; p < ports_; ++p)
        mask[p] = reqs[p].valid;
    std::uint32_t w = subLrg_[o].pick(mask);
    if (w == kRefNone) {
        sim_assert(mut_ != Mutation::None,
                   "sub-block pick with valid requests");
        return kRefNone;
    }
    if (spec_.arb == ArbScheme::Wlrg) {
        // Freeze the demotion until the port won once per requestor
        // it represented (paper III-B3).
        if (++subWins_[o][w] >= reqs[w].weight) {
            subLrg_[o].update(w);
            subWins_[o][w] = 0;
        }
        return w;
    }
    subLrg_[o].update(w);
    return w;
}

std::vector<bool>
RefFabric::arbitrateHiRise(const std::vector<std::uint32_t> &req)
{
    const std::uint32_t n = spec_.radix;
    std::vector<bool> grant(n, false);

    // Per-cycle column state, freshly allocated (the oracle is meant
    // to be obvious, not fast).
    struct Col
    {
        std::vector<bool> mask;
        bool active = false;
        std::uint32_t winner = kRefNone;
        std::uint32_t weight = 0;
        std::uint32_t winnerDst = 0;
    };
    std::vector<Col> inter(n);
    std::vector<Col> chanCol(chanArb_.size());
    for (auto &c : inter)
        c.mask.assign(ppl_, false);
    for (auto &c : chanCol)
        c.mask.assign(ppl_, false);

    // ---- collect requests into phase-1 columns ----------------------
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t o = req[i];
        if (o == kRefNone)
            continue;
        sim_assert(o < n, "request to bad output %u", o);
        std::uint32_t s = layerOf(i);
        std::uint32_t d = layerOf(o);

        if (d == s) {
            // The intermediate-output column is occupied only when
            // the output is held through it (same-layer holder, no
            // channel involved).
            if (holder_[o] != kRefNone && heldChan_[o] == kRefNone &&
                layerOf(holder_[o]) == d)
                continue;
            inter[o].active = true;
            inter[o].mask[localIdx(i)] = true;
            ++inter[o].weight;
            continue;
        }

        if (spec_.alloc == ChannelAlloc::Priority) {
            // Pool request: interest on every channel of (s, d); the
            // walk in phase 1 serializes the choice. The requestor
            // count lives on channel 0's column.
            for (std::uint32_t k = 0; k < chan_; ++k) {
                auto &col = chanCol[chanId(s, d, k)];
                col.active = true;
                col.mask[localIdx(i)] = true;
            }
            ++chanCol[chanId(s, d, 0)].weight;
            continue;
        }

        std::uint32_t k = channelFor(i, o);
        if (k == kRefNone)
            continue; // every channel to that layer has failed
        std::uint32_t id = chanId(s, d, k);
        if (chanBusy_[id])
            continue; // channel mid-transfer: retry next cycle
        auto &col = chanCol[id];
        col.active = true;
        col.mask[localIdx(i)] = true;
        ++col.weight;
    }

    // ---- phase 1: local-switch columns pick (no update yet) ---------
    for (std::uint32_t o = 0; o < n; ++o) {
        if (inter[o].active) {
            inter[o].winner = colArb_[o].pick(inter[o].mask);
            inter[o].winnerDst = o;
        }
    }
    if (spec_.alloc != ChannelAlloc::Priority) {
        for (std::uint32_t id = 0; id < chanCol.size(); ++id) {
            if (chanCol[id].active)
                chanCol[id].winner = chanArb_[id].pick(chanCol[id].mask);
        }
    } else {
        // Priority allocation: per layer pair, free channels pick in
        // order from the remaining requestor pool.
        for (std::uint32_t s = 0; s < nlay_; ++s) {
            for (std::uint32_t d = 0; d < nlay_; ++d) {
                if (s == d)
                    continue;
                auto &pool = chanCol[chanId(s, d, 0)];
                if (!pool.active)
                    continue;
                std::vector<bool> remaining = pool.mask;
                for (std::uint32_t k = 0; k < chan_; ++k) {
                    std::uint32_t id = chanId(s, d, k);
                    if (chanBusy_[id] || chanFailed_[id])
                        continue;
                    std::uint32_t w = chanArb_[id].pick(remaining);
                    if (w == kRefNone)
                        break;
                    chanCol[id].winner = w;
                    chanCol[id].weight = pool.weight;
                    remaining[w] = false;
                }
            }
        }
    }

    // Channel winners carry their request vector to one sub-block.
    for (std::uint32_t id = 0; id < chanCol.size(); ++id) {
        auto &col = chanCol[id];
        if (col.winner == kRefNone)
            continue;
        std::uint32_t s = id / (nlay_ * chan_);
        col.winnerDst = req[s * ppl_ + col.winner];
    }

    // ---- phase 2: sub-block per final output, ascending -------------
    for (std::uint32_t o = 0; o < n; ++o) {
        if (holder_[o] != kRefNone)
            continue;
        std::uint32_t d = layerOf(o);
        std::vector<SubReq> reqs(ports_);
        bool any = false;
        for (std::uint32_t s = 0; s < nlay_; ++s) {
            if (s == d)
                continue;
            for (std::uint32_t k = 0; k < chan_; ++k) {
                const auto &col = chanCol[chanId(s, d, k)];
                if (col.winner == kRefNone || col.winnerDst != o)
                    continue;
                auto &r = reqs[subPort(d, s, k)];
                r.valid = true;
                r.primaryInput = s * ppl_ + col.winner;
                r.weight = std::max(1u, col.weight);
                any = true;
            }
        }
        if (inter[o].winner != kRefNone) {
            auto &r = reqs[ports_ - 1];
            r.valid = true;
            r.primaryInput = d * ppl_ + inter[o].winner;
            r.weight = std::max(1u, inter[o].weight);
            any = true;
        }
        if (!any)
            continue;

        std::uint32_t p = subArbitrate(o, reqs);
        if (p == kRefNone)
            continue; // mutated oracle: divergence, not a grant
        std::uint32_t winner_in = reqs[p].primaryInput;
        holder_[o] = winner_in;
        grant[winner_in] = true;

        if (p + 1 == ports_) {
            // Local path: back-propagate the LRG update.
            heldChan_[o] = kRefNone;
            colArb_[o].update(localIdx(winner_in));
        } else {
            std::uint32_t s, k;
            subPortOrigin(d, p, s, k);
            std::uint32_t id = chanId(s, d, k);
            heldChan_[o] = id;
            chanBusy_[id] = true;
            chanArb_[id].update(localIdx(winner_in));
        }
    }
    return grant;
}

} // namespace hirise::check
