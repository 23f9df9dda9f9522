/**
 * @file
 * Inter-layer sub-block arbiters: one final output choosing among the
 * incoming L2LCs and the local intermediate output (paper III-B).
 */

#ifndef HIRISE_ARB_SUB_BLOCK_ARBITER_HH
#define HIRISE_ARB_SUB_BLOCK_ARBITER_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arb/class_counter.hh"
#include "arb/matrix_arbiter.hh"
#include "common/spec.hh"

namespace hirise::arb {

/** One contender at a sub-block port for this arbitration cycle. */
struct SubBlockRequest
{
    bool valid = false;
    /** Global id of the primary input the port currently represents
     *  (the local-switch winner riding this L2LC). */
    std::uint32_t primaryInput = 0;
    /** WLRG only: number of requestors this L2LC represented at its
     *  local switch when it won (shipped along with the request). */
    std::uint32_t weight = 1;
};

/**
 * Abstract sub-block arbiter. The sub-block is the final arbitration
 * stage, so its winner always owns the output: arbitration both picks
 * and commits priority-state updates.
 */
class SubBlockArbiter
{
  public:
    static constexpr std::uint32_t kNone = MatrixArbiter::kNone;

    explicit SubBlockArbiter(std::uint32_t num_ports)
    {
        valid_.reserve(num_ports);
    }
    virtual ~SubBlockArbiter() = default;

    /** Winner port index, or kNone if nothing valid requested. Lists
     *  the valid ports and calls arbitrateFilled (tests, RTL model). */
    std::uint32_t arbitrate(const std::vector<SubBlockRequest> &reqs);

    /**
     * Winner among the ports listed in @p filled, or kNone when the
     * list is empty. Every listed port is valid in @p reqs, no port is
     * listed twice, and list order does not matter; ports not listed
     * are ignored. Costs O(|filled|), not O(reqs.size()): the fabric's
     * phase 2 passes the ports it filled this cycle.
     */
    virtual std::uint32_t
    arbitrateFilled(const std::vector<SubBlockRequest> &reqs,
                    std::span<const std::uint32_t> filled) = 0;

    /** Checkpoint the priority state (common/snapshot.hh contract:
     *  load() runs on a same-configuration fresh instance). */
    virtual void save(snap::Writer &w) const = 0;
    virtual void load(snap::Reader &r) = 0;

  private:
    std::vector<std::uint32_t> valid_; //!< arbitrate() scratch
};

/** Baseline layer-to-layer LRG: plain matrix LRG over ports. */
class LrgSubArbiter : public SubBlockArbiter
{
  public:
    explicit LrgSubArbiter(std::uint32_t num_ports)
        : SubBlockArbiter(num_ports), lrg_(num_ports)
    {}

    std::uint32_t
    arbitrateFilled(const std::vector<SubBlockRequest> &reqs,
                    std::span<const std::uint32_t> filled) override;

    void save(snap::Writer &w) const override { lrg_.save(w); }
    void load(snap::Reader &r) override { lrg_.load(r); }

  private:
    MatrixArbiter lrg_;
};

/**
 * Weighted LRG: hold the winner's LRG demotion until it has won as
 * many times as the requestor count it represents (paper III-B3).
 * Simulated for comparison only; its hardware is infeasible (Table V).
 */
class WlrgSubArbiter : public SubBlockArbiter
{
  public:
    explicit WlrgSubArbiter(std::uint32_t num_ports)
        : SubBlockArbiter(num_ports), lrg_(num_ports), wins_(num_ports, 0)
    {}

    std::uint32_t
    arbitrateFilled(const std::vector<SubBlockRequest> &reqs,
                    std::span<const std::uint32_t> filled) override;

    void
    save(snap::Writer &w) const override
    {
        lrg_.save(w);
        w.vec(wins_);
    }
    void
    load(snap::Reader &r) override
    {
        lrg_.load(r);
        r.vec(wins_);
    }

  private:
    MatrixArbiter lrg_;
    std::vector<std::uint32_t> wins_;
};

/**
 * Class-based LRG (the paper's scheme): coarse priority by per-
 * primary-input usage class, LRG tie-break inside a class. The LRG is
 * updated on every grant even when the class decided (paper III-B4).
 */
class ClrgSubArbiter : public SubBlockArbiter
{
  public:
    ClrgSubArbiter(std::uint32_t num_ports, std::uint32_t num_inputs,
                   std::uint32_t max_count)
        : SubBlockArbiter(num_ports), lrg_(num_ports),
          counters_(num_inputs, max_count)
    {}

    std::uint32_t
    arbitrateFilled(const std::vector<SubBlockRequest> &reqs,
                    std::span<const std::uint32_t> filled) override;

    const ClassCounterBank &counters() const { return counters_; }

    void
    save(snap::Writer &w) const override
    {
        lrg_.save(w);
        counters_.save(w);
    }
    void
    load(snap::Reader &r) override
    {
        lrg_.load(r);
        counters_.load(r);
    }

  private:
    MatrixArbiter lrg_;
    ClassCounterBank counters_;
};

/** Factory keyed on the spec's arbitration scheme. */
std::unique_ptr<SubBlockArbiter>
makeSubBlockArbiter(ArbScheme scheme, std::uint32_t num_ports,
                    std::uint32_t num_inputs, std::uint32_t max_count);

} // namespace hirise::arb

#endif // HIRISE_ARB_SUB_BLOCK_ARBITER_HH
