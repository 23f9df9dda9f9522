/**
 * @file
 * Flat 2D Swizzle-Switch fabric (paper section II-A): a single N x N
 * matrix crossbar. Also models the 3D folded baseline (section II-B),
 * which is logically the same switch redistributed over layers; only
 * its physical model differs.
 *
 * The grant decision is a pluggable strategy (arb::CrossbarScheduler,
 * selected by spec.arb): the fabric hands the cycle's request list and
 * its holder table to the scheduler — LRG matrix arbiters, iSLIP, PIM,
 * or a wavefront allocator — which grants a matching. The scheduler
 * runs only on cycles with at least one request, which is exactly the
 * set of cycles the event-driven simulator arbitrates, so stateful
 * schedulers stay bit-identical across stepping modes.
 */

#ifndef HIRISE_FABRIC_FLAT2D_HH
#define HIRISE_FABRIC_FLAT2D_HH

#include <memory>

#include "arb/scheduler.hh"
#include "fabric/fabric.hh"

namespace hirise::fabric {

class Flat2dFabric : public Fabric
{
  public:
    explicit Flat2dFabric(const SwitchSpec &spec);

    const BitVec &
    arbitrate(std::span<const std::uint32_t> req) override;
    const BitVec &
    arbitrateActive(std::span<const std::uint32_t> req,
                    std::span<const std::uint32_t> active) override;
    void release(std::uint32_t input, std::uint32_t output) override;
    bool outputBusy(std::uint32_t output) const override;
    std::uint32_t outputHolder(std::uint32_t output) const override;

    void save(snap::Writer &w) const override;
    void load(snap::Reader &r) override;

  private:
    /** Grant-decision strategy for the request list. */
    std::unique_ptr<arb::CrossbarScheduler> sched_;
    std::vector<std::uint32_t> holder_; //!< per output; kNoRequest=free
    /** arbitrate()'s request list, built from the dense vector. */
    std::vector<std::uint32_t> active_;
};

} // namespace hirise::fabric

#endif // HIRISE_FABRIC_FLAT2D_HH
