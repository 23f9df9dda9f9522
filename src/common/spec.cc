#include "common/spec.hh"

namespace hirise {

const char *
toString(Topology t)
{
    switch (t) {
      case Topology::Flat2D: return "2D";
      case Topology::Folded3D: return "3D-Folded";
      case Topology::HiRise: return "HiRise";
    }
    return "?";
}

const char *
toString(ArbScheme a)
{
    switch (a) {
      case ArbScheme::Lrg: return "LRG";
      case ArbScheme::LayerLrg: return "L-2-L LRG";
      case ArbScheme::Wlrg: return "WLRG";
      case ArbScheme::Clrg: return "CLRG";
      case ArbScheme::Islip: return "iSLIP";
      case ArbScheme::Pim: return "PIM";
      case ArbScheme::Wavefront: return "WF";
    }
    return "?";
}

const char *
toString(ChannelAlloc a)
{
    switch (a) {
      case ChannelAlloc::InputBinned: return "input-binned";
      case ChannelAlloc::OutputBinned: return "output-binned";
      case ChannelAlloc::Priority: return "priority";
    }
    return "?";
}

std::string
SwitchSpec::name() const
{
    std::string out = toString(topo);
    out += " r" + std::to_string(radix);
    if (topo != Topology::Flat2D) {
        out += " L" + std::to_string(layers);
        if (topo == Topology::HiRise)
            out += " c" + std::to_string(channels);
    }
    out += std::string(" ") + toString(arb);
    if (arb == ArbScheme::Islip || arb == ArbScheme::Pim) {
        out += '/';
        out += std::to_string(schedIters);
    }
    return out;
}

/** True for the single-stage crossbar schedulers Flat2D supports. */
static bool
isFlatScheme(ArbScheme a)
{
    return a == ArbScheme::Lrg || a == ArbScheme::Islip ||
           a == ArbScheme::Pim || a == ArbScheme::Wavefront;
}

std::string
SwitchSpec::check() const
{
    using detail::format;
    if (radix < 2)
        return format("radix must be >= 2 (got %u)", radix);
    if (flitBits == 0)
        return "flitBits must be > 0";
    if (schedIters < 1)
        return "schedulers need >= 1 iteration per cycle";
    if (topo == Topology::Flat2D) {
        if (!isFlatScheme(arb))
            return "a flat 2D switch only supports the single-stage "
                   "crossbar schedulers (LRG, iSLIP, PIM, WF)";
        return {};
    }
    if (layers < 2)
        return format("3D topologies need >= 2 layers (got %u)", layers);
    if (topo == Topology::Folded3D && arb != ArbScheme::Lrg)
        return "the folded 3D switch uses flat LRG arbitration";
    if (topo == Topology::HiRise) {
        if (channels < 1)
            return "channel multiplicity must be >= 1";
        if (isFlatScheme(arb))
            return "HiRise needs a two-phase scheme "
                   "(LayerLrg, Wlrg, or Clrg)";
        std::uint32_t ppl = portsPerLayer();
        if (alloc == ChannelAlloc::InputBinned && channels > ppl)
            return format("more channels (%u) than inputs per layer (%u)",
                          channels, ppl);
        if (clrgMaxCount < 1)
            return "CLRG needs at least 2 classes (maxCount >= 1)";
    }
    return {};
}

void
SwitchSpec::validate() const
{
    std::string err = check();
    if (!err.empty())
        fatal("%s", err.c_str());
}

} // namespace hirise
