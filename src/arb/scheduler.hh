/**
 * @file
 * Pluggable single-stage crossbar schedulers (ROADMAP item 3): the
 * grant-decision strategy behind Flat2dFabric. The fabric hands its
 * cycle's request list (schedule()) to the scheduler, which grants at
 * most one input per free output, one output per input — a matching.
 * LRG decides in one pass over the list; the iterative schedulers
 * (ColumnScheduler) bin the list into per-output columns (a
 * `contended` output set plus a `want` requestor bitmap per column)
 * and match those. Selected via SwitchSpec::arb (makeScheduler below).
 *
 * Implemented strategies:
 *  - LRG: per-column matrix arbiter, exactly the decision sequence the
 *    fabric hard-wired before the interface existed (bit-identical):
 *    each free output goes to its requestor with the oldest grant.
 *  - iSLIP: 1..k iterations of round-robin grant/accept pointer
 *    matching (McKeown); pointers move one past the match only when
 *    the grant is accepted in the first iteration, which is what
 *    desynchronizes the pointers under contention.
 *  - PIM: 1..k rounds of uniform-random grant/accept (Anderson et
 *    al., Tiny Tera lineage) driven by the counter RNG
 *    (common/random.hh) so every draw is a pure function of
 *    (schedSeed, draw index) — order-independent and replayable.
 *  - Wavefront: combinational rotating-priority diagonal sweep.
 *
 * Statefulness contract: the fabric calls schedule() exactly once per
 * arbitration cycle in which at least one input requested, and never
 * on all-idle cycles (the event core skips those entirely — see
 * Fabric::advanceIdle). Schedulers may therefore advance per-call
 * state (round-robin pointers, the PIM draw tick, the wavefront
 * priority diagonal) inside schedule() and stay bit-identical across
 * dense and event-driven stepping. Each strategy has a
 * deliberately naive reference twin in src/check/oracle.cc whose
 * decision order must track this file operation for operation.
 *
 * Pointer/update rules and references: docs/SCHEDULERS.md.
 */

#ifndef HIRISE_ARB_SCHEDULER_HH
#define HIRISE_ARB_SCHEDULER_HH

#include <memory>
#include <span>
#include <vector>

#include "arb/matrix_arbiter.hh"
#include "common/bitvec.hh"
#include "common/random.hh"
#include "common/spec.hh"

namespace hirise::arb {

class CrossbarScheduler
{
  public:
    static constexpr std::uint32_t kNone = ~0u;

    explicit CrossbarScheduler(std::uint32_t n) : n_(n) {}
    virtual ~CrossbarScheduler() = default;

    std::uint32_t size() const { return n_; }

    /**
     * One arbitration cycle of the fabric.
     *
     * @param req    req[i] = output input i requests
     * @param active the requesting inputs, ascending (non-empty)
     * @param holder per output: the input holding it, or kNone when
     *               free; a request to a held output loses, and each
     *               grant is recorded here
     * @param grant  each granted input's bit is set
     */
    virtual void schedule(std::span<const std::uint32_t> req,
                          std::span<const std::uint32_t> active,
                          std::span<std::uint32_t> holder,
                          BitVec &grant) = 0;

    /** Checkpoint per-call state (pointers, ticks, priority rows);
     *  load() runs on a same-configuration fresh instance. */
    virtual void save(snap::Writer &w) const = 0;
    virtual void load(snap::Reader &r) = 0;

  protected:
    std::uint32_t n_;
};

/** The paper's flat scheme: one least-recently-granted matrix arbiter
 *  per output column. Columns are independent, so schedule() takes
 *  each free output's requestor with the smallest grant stamp in one
 *  pass over the request list (stamps are distinct: the minimum does
 *  not depend on the visiting order) and then demotes the winners. */
class LrgScheduler final : public CrossbarScheduler
{
  public:
    explicit LrgScheduler(std::uint32_t n)
        : CrossbarScheduler(n), arb_(n, MatrixArbiter(n)), best_(n, kNone),
          touched_(n)
    {}

    void schedule(std::span<const std::uint32_t> req,
                  std::span<const std::uint32_t> active,
                  std::span<std::uint32_t> holder,
                  BitVec &grant) override;

    const MatrixArbiter &columnArb(std::uint32_t o) const
    {
        return arb_[o];
    }

    void
    save(snap::Writer &w) const override
    {
        for (const auto &a : arb_)
            a.save(w);
    }
    void
    load(snap::Reader &r) override
    {
        for (auto &a : arb_)
            a.load(r);
    }

  private:
    std::vector<MatrixArbiter> arb_;

    // -- per-call scratch --------------------------------------------
    std::vector<std::uint32_t> best_;    //!< per output; kNone between calls
    std::vector<std::uint32_t> touched_; //!< outputs with a best_ entry
};

/**
 * Base of the schedulers that match a request matrix (iSLIP, PIM,
 * wavefront): schedule() bins the request list into per-output
 * columns — free outputs only, each column's requestors ascending —
 * and runs match() on them, even when every request lost to a held
 * output.
 */
class ColumnScheduler : public CrossbarScheduler
{
  public:
    explicit ColumnScheduler(std::uint32_t n)
        : CrossbarScheduler(n), want_(n, BitVec(n)), contended_(n),
          winner_(n, kNone)
    {}

    void schedule(std::span<const std::uint32_t> req,
                  std::span<const std::uint32_t> active,
                  std::span<std::uint32_t> holder,
                  BitVec &grant) final;

    /**
     * One matching pass over request columns.
     *
     * @param contended outputs with >= 1 requestor this cycle (held
     *                  outputs never appear — their requests lost
     *                  when the list was binned)
     * @param want      want[o] = requestor bitmap of output o's
     *                  column; valid only for contended o
     * @param winner    out-param: winner[o] = granted input or kNone
     *                  for every contended o (entries of other
     *                  outputs are left untouched)
     *
     * Must produce a matching for any request matrix, including
     * multi-request columns the fabric's degree-1 list cannot
     * express: distinct contended outputs never get the same winner,
     * and winner[o] is always a requestor of o.
     */
    virtual void match(const BitVec &contended,
                       std::span<const BitVec> want,
                       std::span<std::uint32_t> winner) = 0;

  private:
    std::vector<BitVec> want_; //!< requestor mask per output column
    BitVec contended_;         //!< outputs with >= 1 requestor
    std::vector<std::uint32_t> winner_; //!< match() out-param
};

/** iSLIP with @p iters iterations (iters == 1 is plain SLIP). */
class IslipScheduler final : public ColumnScheduler
{
  public:
    IslipScheduler(std::uint32_t n, std::uint32_t iters)
        : ColumnScheduler(n), iters_(iters), grantPtr_(n, 0),
          acceptPtr_(n, 0), bestOut_(n, 0), bestDist_(n, 0),
          matchedIn_(n), grantedIn_(n), outPending_(n), cand_(n)
    {}

    void match(const BitVec &contended, std::span<const BitVec> want,
               std::span<std::uint32_t> winner) override;

    std::uint32_t grantPtr(std::uint32_t o) const { return grantPtr_[o]; }
    std::uint32_t acceptPtr(std::uint32_t i) const
    {
        return acceptPtr_[i];
    }

    void
    save(snap::Writer &w) const override
    {
        w.vec(grantPtr_);
        w.vec(acceptPtr_);
    }
    void
    load(snap::Reader &r) override
    {
        r.vec(grantPtr_);
        r.vec(acceptPtr_);
    }

  private:
    std::uint32_t iters_;
    std::vector<std::uint32_t> grantPtr_;  //!< per output column
    std::vector<std::uint32_t> acceptPtr_; //!< per input

    // -- per-call scratch (no steady-state allocation) ---------------
    std::vector<std::uint32_t> bestOut_;  //!< per input: best grant
    std::vector<std::uint32_t> bestDist_; //!< circular dist to accept ptr
    BitVec matchedIn_;  //!< inputs matched in an earlier iteration
    BitVec grantedIn_;  //!< inputs granted this iteration
    BitVec outPending_; //!< contended outputs still unmatched
    BitVec cand_;       //!< want[o] & ~matchedIn_
};

/** Parallel iterative matching with @p rounds random grant/accept
 *  rounds. Every random choice is one counter-RNG draw addressed by a
 *  sequential tick, so the draw sequence — and hence the schedule —
 *  is a pure function of (seed, request history), independent of
 *  stepping mode and replayable by the oracle. A draw is consumed per
 *  granting output and per accepting input even when only one choice
 *  exists, keeping the tick stream aligned with the request history
 *  alone. */
class PimScheduler final : public ColumnScheduler
{
  public:
    PimScheduler(std::uint32_t n, std::uint32_t rounds,
                 std::uint64_t seed)
        : ColumnScheduler(n), rounds_(rounds),
          key_(counterKey(seed, 0)), grants_(n), matchedIn_(n),
          grantedIn_(n), outPending_(n), cand_(n)
    {}

    void match(const BitVec &contended, std::span<const BitVec> want,
               std::span<std::uint32_t> winner) override;

    std::uint64_t tick() const { return tick_; }

    void save(snap::Writer &w) const override { w.u64(tick_); }
    void load(snap::Reader &r) override { tick_ = r.u64(); }

  private:
    std::uint32_t rounds_;
    std::uint64_t key_;      //!< counter-RNG stream key
    std::uint64_t tick_ = 0; //!< next draw index

    // -- per-call scratch --------------------------------------------
    std::vector<std::vector<std::uint32_t>> grants_; //!< per input
    BitVec matchedIn_;
    BitVec grantedIn_;
    BitVec outPending_;
    BitVec cand_;
};

/** Rotating-priority wavefront allocator: sweep the n diagonals
 *  i + o == diag (mod n) starting from a priority diagonal that
 *  rotates one position per arbitration call; cells on one diagonal
 *  are conflict-free, so each sweep grants greedily. */
class WavefrontScheduler final : public ColumnScheduler
{
  public:
    explicit WavefrontScheduler(std::uint32_t n)
        : ColumnScheduler(n), matchedIn_(n)
    {}

    void match(const BitVec &contended, std::span<const BitVec> want,
               std::span<std::uint32_t> winner) override;

    std::uint32_t priority() const { return prio_; }

    void save(snap::Writer &w) const override { w.u32(prio_); }
    void load(snap::Reader &r) override { prio_ = r.u32(); }

  private:
    std::uint32_t prio_ = 0; //!< priority diagonal, rotates per call
    BitVec matchedIn_;
};

/** Build the scheduler selected by spec.arb (fatal()s for the
 *  two-phase HiRise schemes — those live in SubBlockArbiter). */
std::unique_ptr<CrossbarScheduler>
makeScheduler(const SwitchSpec &spec);

} // namespace hirise::arb

#endif // HIRISE_ARB_SCHEDULER_HH
