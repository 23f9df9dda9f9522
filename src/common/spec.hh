/**
 * @file
 * Switch configuration description shared by the physical model, the
 * fabric simulators, and the experiment harness.
 */

#ifndef HIRISE_COMMON_SPEC_HH
#define HIRISE_COMMON_SPEC_HH

#include <cstdint>
#include <string>

#include "common/logging.hh"

namespace hirise {

/** Which switch datapath is being modeled. */
enum class Topology
{
    Flat2D,   //!< flat 2D Swizzle-Switch (single-stage matrix)
    Folded3D, //!< 2D switch folded over L layers (Sewell et al. baseline)
    HiRise,   //!< hierarchical 3D switch (this paper)
};

/** Arbitration scheme (paper section III-B; flat-crossbar schedulers
 *  beyond LRG come from the input-queued-switch literature, ROADMAP
 *  item 3 — see docs/SCHEDULERS.md). */
enum class ArbScheme
{
    Lrg,      //!< flat least-recently-granted (2D / folded baseline)
    LayerLrg, //!< baseline layer-to-layer LRG (independent two-phase)
    Wlrg,     //!< weighted LRG (hardware-infeasible; simulated only)
    Clrg,     //!< class-based LRG (the paper's proposal)
    Islip,    //!< iterative SLIP round-robin matching (flat 2D only)
    Pim,      //!< parallel iterative matching, random (flat 2D only)
    Wavefront,//!< rotating-diagonal wavefront allocator (flat 2D only)
};

/** L2LC channel-allocation policy (paper section III-A). */
enum class ChannelAlloc
{
    InputBinned,  //!< input i uses channel (i mod c), interleaved
    OutputBinned, //!< channel chosen by destination output index
    Priority,     //!< any free channel via priority mux (slower clock)
};

/**
 * Full architectural description of one switch instance.
 *
 * For Topology::Flat2D, layers/channels are ignored (treated as 1).
 */
struct SwitchSpec
{
    Topology topo = Topology::HiRise;
    std::uint32_t radix = 64;    //!< N: total inputs == total outputs
    std::uint32_t layers = 4;    //!< L: stacked silicon layers
    std::uint32_t channels = 4;  //!< c: L2LC multiplicity per layer pair
    std::uint32_t flitBits = 128;
    ArbScheme arb = ArbScheme::Clrg;
    ChannelAlloc alloc = ChannelAlloc::InputBinned;
    /** CLRG class-counter saturation value (count range 0..maxCount,
     *  i.e. maxCount+1 classes; the paper uses 3 classes -> 2). */
    std::uint32_t clrgMaxCount = 2;
    /** iSLIP iteration / PIM round count per arbitration cycle
     *  (Islip/Pim only; other schemes ignore it). */
    std::uint32_t schedIters = 1;
    /** Base seed of the PIM scheduler's counter-RNG draw stream
     *  (Pim only). Part of the simulation identity, so sim::SimCache
     *  hashes it into its keys. */
    std::uint64_t schedSeed = 0;

    /** Inputs (== outputs) per layer, rounded up for uneven splits. */
    std::uint32_t
    portsPerLayer() const
    {
        if (topo == Topology::Flat2D)
            return radix;
        return (radix + layers - 1) / layers;
    }

    /** Number of incoming L2LCs at one layer's inter-layer switch. */
    std::uint32_t
    incomingChannels() const
    {
        return channels * (layers - 1);
    }

    /** Short human-readable description, e.g. "HiRise r64 L4 c4 CLRG". */
    std::string name() const;

    /** The first rule this configuration violates, or an empty
     *  string when it is consistent. */
    std::string check() const;

    /** fatal()s with check()'s message if the configuration is
     *  inconsistent. */
    void validate() const;
};

const char *toString(Topology t);
const char *toString(ArbScheme a);
const char *toString(ChannelAlloc a);

} // namespace hirise

#endif // HIRISE_COMMON_SPEC_HH
