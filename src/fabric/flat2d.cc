#include "fabric/flat2d.hh"

#include "obs/metrics.hh"
#include "obs/trace.hh"

#ifdef HIRISE_CHECK_ENABLED
#include "check/invariants.hh"
#endif

namespace hirise::fabric {

namespace {

[[gnu::cold]] [[gnu::noinline]] void
countFlatGrants(std::uint32_t n)
{
    static obs::Counter &c =
        obs::MetricsRegistry::global().counter("fabric.grants_flat");
    c.inc(n);
}

} // namespace

// holder_ is handed to the scheduler, which reads kNone as a free
// output.
static_assert(arb::CrossbarScheduler::kNone == kNoRequest);

Flat2dFabric::Flat2dFabric(const SwitchSpec &spec)
    : Fabric(spec), sched_(arb::makeScheduler(spec)),
      holder_(spec.radix, kNoRequest), active_(spec.radix)
{
    sim_assert(spec.topo == Topology::Flat2D ||
                   spec.topo == Topology::Folded3D,
               "Flat2dFabric models 2D and folded switches only");
}

const BitVec &
Flat2dFabric::arbitrate(std::span<const std::uint32_t> req)
{
    sim_assert(req.size() == spec_.radix, "bad request vector");
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < spec_.radix; ++i)
        if (req[i] != kNoRequest)
            active_[n++] = i;
    return arbitrateActive(req, std::span(active_).first(n));
}

const BitVec &
Flat2dFabric::arbitrateActive(std::span<const std::uint32_t> req,
                              std::span<const std::uint32_t> active)
{
    sim_assert(req.size() == spec_.radix, "bad request vector");
    grant_.clear();
    // The scheduler runs — and advances its per-call state — exactly
    // when some input requested, even if every request lost to a busy
    // output. Those are precisely the cycles the event core
    // arbitrates, so dense stepping matches it by gating here instead
    // of calling unconditionally.
    if (!active.empty())
        sched_->schedule(req, active, holder_, grant_);
    // One guard per arbitrate, not per grant: the loop stays clean
    // and the counter batches via popcount.
    if (obs::on()) [[unlikely]]
        countFlatGrants(grant_.count());
#ifdef HIRISE_CHECK_ENABLED
    auto holder = [this](std::uint32_t o) { return holder_[o]; };
    check::verifyGrantMatching(req, grant_, spec_.radix, holder);
    check::verifyHolderInjective(spec_.radix, holder);
#endif
    return grant_;
}

void
Flat2dFabric::release(std::uint32_t input, std::uint32_t output)
{
    sim_assert(output < spec_.radix && holder_[output] == input,
               "release of unheld connection %u->%u", input, output);
    holder_[output] = kNoRequest;
}

bool
Flat2dFabric::outputBusy(std::uint32_t output) const
{
    return holder_[output] != kNoRequest;
}

std::uint32_t
Flat2dFabric::outputHolder(std::uint32_t output) const
{
    return holder_[output];
}

void
Flat2dFabric::save(snap::Writer &w) const
{
    w.vec(holder_);
    sched_->save(w);
}

void
Flat2dFabric::load(snap::Reader &r)
{
    r.vec(holder_);
    sched_->load(r);
}

} // namespace hirise::fabric
