#include "arb/sub_block_arbiter.hh"

namespace hirise::arb {

std::uint32_t
SubBlockArbiter::arbitrate(const std::vector<SubBlockRequest> &reqs)
{
    valid_.clear();
    for (std::size_t i = 0; i < reqs.size(); ++i)
        if (reqs[i].valid)
            valid_.push_back(static_cast<std::uint32_t>(i));
    return arbitrateFilled(reqs, valid_);
}

std::uint32_t
LrgSubArbiter::arbitrateFilled(const std::vector<SubBlockRequest> &,
                               std::span<const std::uint32_t> filled)
{
    std::uint32_t w = lrg_.pick(filled);
    if (w != kNone)
        lrg_.update(w);
    return w;
}

std::uint32_t
WlrgSubArbiter::arbitrateFilled(const std::vector<SubBlockRequest> &reqs,
                                std::span<const std::uint32_t> filled)
{
    std::uint32_t w = lrg_.pick(filled);
    if (w == kNone)
        return w;
    // Freeze the LRG demotion until this port has won once per
    // requestor it represented, so heavier L2LCs keep a proportional
    // share of the output (the "weights" of section III-B3).
    ++wins_[w];
    if (wins_[w] >= reqs[w].weight) {
        lrg_.update(w);
        wins_[w] = 0;
    }
    return w;
}

std::uint32_t
ClrgSubArbiter::arbitrateFilled(const std::vector<SubBlockRequest> &reqs,
                                std::span<const std::uint32_t> filled)
{
    // The priority-select muxes inhibit every request outside the
    // lowest (best) class among the contenders; LRG breaks ties within
    // it (Fig 7). One pass keeps the (class, LRG rank) minimum. Real
    // classes are bounded by maxCount, so the first port always beats
    // the ~0u start and outranks() never sees kNone.
    std::uint32_t w = kNone;
    std::uint32_t best_class = ~0u;
    for (std::uint32_t p : filled) {
        const std::uint32_t c = counters_.classOf(reqs[p].primaryInput);
        if (c < best_class || (c == best_class && lrg_.outranks(p, w))) {
            w = p;
            best_class = c;
        }
    }
    if (w == kNone)
        return kNone;
    // LRG is updated even on class-decided cycles (paper III-B4).
    lrg_.update(w);
    counters_.onWin(reqs[w].primaryInput);
    return w;
}

std::unique_ptr<SubBlockArbiter>
makeSubBlockArbiter(ArbScheme scheme, std::uint32_t num_ports,
                    std::uint32_t num_inputs, std::uint32_t max_count)
{
    switch (scheme) {
      case ArbScheme::LayerLrg:
        return std::make_unique<LrgSubArbiter>(num_ports);
      case ArbScheme::Wlrg:
        return std::make_unique<WlrgSubArbiter>(num_ports);
      case ArbScheme::Clrg:
        return std::make_unique<ClrgSubArbiter>(num_ports, num_inputs,
                                                max_count);
      case ArbScheme::Lrg:
      case ArbScheme::Islip:
      case ArbScheme::Pim:
      case ArbScheme::Wavefront:
        // Flat-only schemes: a flat switch has no sub-blocks; callers
        // use MatrixArbiter or a CrossbarScheduler.
        break;
    }
    panic("no sub-block arbiter for scheme %s", toString(scheme));
}

} // namespace hirise::arb
