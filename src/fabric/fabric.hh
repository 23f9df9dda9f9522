/**
 * @file
 * Abstract switch-fabric interface: single-cycle arbitration over a
 * set of per-input output requests, with connections held for the
 * packet duration (Swizzle-Switch semantics: a port either arbitrates
 * or transfers in a given cycle, never both).
 */

#ifndef HIRISE_FABRIC_FABRIC_HH
#define HIRISE_FABRIC_FABRIC_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bitvec.hh"
#include "common/snapshot.hh"
#include "common/spec.hh"

namespace hirise::fabric {

constexpr std::uint32_t kNoRequest = ~0u;

/** A connection forcibly torn down because its channel failed while a
 *  multi-flit packet held it (see Fabric::failChannel). */
struct BrokenConn
{
    std::uint32_t input = kNoRequest;
    std::uint32_t output = kNoRequest;
};

/**
 * One switch datapath + its built-in arbitration state, driven by
 * fabric::SwitchCore (switch_core.hh):
 *  - arbitrate() takes req[i] = desired output of input i, or
 *    kNoRequest when input i is idle or mid-transfer. Requests from
 *    inputs holding a connection are invalid.
 *  - a granted input owns the path to its output until release().
 *  - requests to busy outputs simply lose (no queueing inside the
 *    fabric; the input re-arbitrates next cycle, like the real switch).
 */
class Fabric
{
  public:
    explicit Fabric(const SwitchSpec &spec)
        : spec_(spec), grant_(spec.radix)
    {
        spec_.validate();
    }
    virtual ~Fabric() = default;

    const SwitchSpec &spec() const { return spec_; }
    std::uint32_t radix() const { return spec_.radix; }

    /**
     * Run one arbitration cycle.
     * @return grant[i] == true iff input i won an end-to-end path.
     *         The reference is to preallocated scratch owned by the
     *         fabric; it is overwritten by the next arbitrate() call.
     */
    virtual const BitVec &
    arbitrate(std::span<const std::uint32_t> req) = 0;

    /**
     * As arbitrate(), but with the requesting inputs enumerated in
     * @p active (ascending, exactly the i with req[i] != kNoRequest).
     * Semantically identical to arbitrate(req) — the list only lets
     * implementations skip the O(radix) scan for idle inputs.
     * Default: full arbitrate(req).
     */
    virtual const BitVec &
    arbitrateActive(std::span<const std::uint32_t> req,
                    std::span<const std::uint32_t> /*active*/)
    {
        return arbitrate(req);
    }

    /** Tear down the connection input -> output (tail flit sent). */
    virtual void release(std::uint32_t input, std::uint32_t output) = 0;

    /**
     * Account @p cycles request-free arbitration cycles without
     * running arbitration. An all-kNoRequest arbitrate() leaves every
     * arbiter and connection untouched, so SwitchCore calls this
     * instead; fabrics with per-call statistics (HiRise's channel-
     * utilization denominators) override it so the stats match dense
     * stepping exactly. Default: no-op.
     */
    virtual void advanceIdle(std::uint64_t /*cycles*/) {}

    virtual bool outputBusy(std::uint32_t output) const = 0;

    /** Input currently connected to @p output, or kNoRequest. */
    virtual std::uint32_t outputHolder(std::uint32_t output) const = 0;

    // -- dynamic channel faults (topologies with L2LCs only) ---------

    /** Does this fabric model failable inter-layer channels? False
     *  (the default) makes the fault entry points below fatal. */
    virtual bool supportsChannelFaults() const { return false; }

    /**
     * Fail L2LC @p k between layers @p src_layer -> @p dst_layer, as
     * of the current cycle. If a connection holds the channel
     * mid-packet it is forcibly broken — holder bookkeeping cleared,
     * the victim appended to @p broken (when non-null) so the
     * simulator can drop the in-flight packet. Idempotent on an
     * already-failed channel.
     */
    virtual void
    failChannel(std::uint32_t src_layer, std::uint32_t dst_layer,
                std::uint32_t chan,
                std::vector<BrokenConn> *broken = nullptr)
    {
        (void)src_layer;
        (void)dst_layer;
        (void)chan;
        (void)broken;
        fatal("fabric '%s' has no failable channels",
              toString(spec_.topo));
    }

    /** Return a previously failed channel to service (idempotent). */
    virtual void
    recoverChannel(std::uint32_t src_layer, std::uint32_t dst_layer,
                   std::uint32_t chan)
    {
        (void)src_layer;
        (void)dst_layer;
        (void)chan;
        fatal("fabric '%s' has no failable channels",
              toString(spec_.topo));
    }

    /** Flat channel id (s*L + d)*c + k held by @p output 's active
     *  connection, or kNoRequest for idle outputs and same-layer
     *  (channel-less) connections. Lets the simulator attribute each
     *  transferred flit to the L2LC it crosses (flaky-link error
     *  draws). Default: no channels, always kNoRequest. */
    virtual std::uint32_t
    heldChannelId(std::uint32_t /*output*/) const
    {
        return kNoRequest;
    }

    // -- checkpoint/restore ------------------------------------------

    /** Serialize all mutable state (holders, arbiter priorities,
     *  fault flags, statistics). load() runs on a freshly constructed
     *  fabric of the same spec; per-cycle scratch needs no saving. */
    virtual void
    save(snap::Writer & /*w*/) const
    {
        fatal("fabric '%s' does not support snapshots",
              toString(spec_.topo));
    }

    virtual void
    load(snap::Reader & /*r*/)
    {
        fatal("fabric '%s' does not support snapshots",
              toString(spec_.topo));
    }

  protected:
    SwitchSpec spec_;
    BitVec grant_; //!< per-cycle grant scratch, reused across cycles
};

/** Build the fabric matching spec.topo / spec.arb. */
std::unique_ptr<Fabric> makeFabric(const SwitchSpec &spec);

} // namespace hirise::fabric

#endif // HIRISE_FABRIC_FABRIC_HH
