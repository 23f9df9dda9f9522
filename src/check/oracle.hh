/**
 * @file
 * Differential-testing oracle for the switch fabrics: a deliberately
 * naive, allocation-happy O(radix^2) reimplementation of matrix-LRG
 * arbitration, the CLRG class counters, and the Flat2D / Hi-Rise
 * two-phase grant path (including all channel-allocation modes and
 * L2LC fault masks).
 *
 * The oracle shares only SwitchSpec with the optimized code -- no
 * BitVec, no MatrixArbiter, no fabric classes -- so a bug in the
 * word-parallel hot path cannot be mirrored here by construction.
 * Everything is std::vector<bool> matrices and per-cycle fresh
 * allocations: slow, obvious, and easy to audit against the paper.
 *
 * Mutation: the oracle can be built with one deliberately seeded bug
 * (see Mutation below). The fuzzer's mutation smoke test proves the
 * differential harness actually detects arbiter bugs by enabling one
 * and requiring a mismatch.
 */

#ifndef HIRISE_CHECK_ORACLE_HH
#define HIRISE_CHECK_ORACLE_HH

#include <cstdint>
#include <vector>

#include "common/spec.hh"

namespace hirise::check {

constexpr std::uint32_t kRefNone = ~0u;

/** Deliberately seeded oracle bugs for the mutation smoke test. */
enum class Mutation
{
    None,
    /** Off-by-one loop bound in the matrix-arbiter priority update:
     *  the last port's row/column is never rewritten, so it is not
     *  promoted above a freshly demoted winner. */
    LrgUpdateOffByOne,
    /** CLRG saturation halves only the winner's counter instead of
     *  the whole bank, so relative class order is corrupted. */
    ClrgHalveWinnerOnly,
    /** iSLIP grant pointer never advances past an accepted grant, so
     *  a column keeps favoring the same input under contention. */
    IslipGrantPtrStuck,
    /** PIM accept draws reuse the round's last grant draw instead of
     *  consuming fresh ticks, shifting every later draw in the
     *  stream. */
    PimReuseRoundRng,
    /** Wavefront priority diagonal never rotates, so the allocator
     *  degenerates to a fixed-priority sweep. */
    WavefrontStuckPriority,
    /** Flaky-link auto-isolation trips at count == maxErrorsPerWindow
     *  instead of strictly above it (sim/fault.hh's
     *  FaultSchedule::mutIsolationOffByOne, applied to the pure-
     *  oracle replay only), so the mutant isolates one error early
     *  and its drop/throughput ledger diverges. */
    IsolationThresholdOffByOne,
    /** A virtual source queue's advanced head counts its own input in
     *  the id popcount (sim/virtual_queue.hh's mutIdOffByOne, applied
     *  to the simulator itself), so packet ids come out one too high.
     *  No SimResult field moves; the fuzzer's queue-mode pass catches
     *  it in the final snapshot payload. */
    QueueIdOffByOne,
};

const char *toString(Mutation m);

/** Victim of a forced channel break (oracle-side twin of
 *  fabric::BrokenConn; the oracle deliberately shares no headers with
 *  the optimized fabric code). */
struct RefBrokenConn
{
    std::uint32_t input = kRefNone;
    std::uint32_t output = kRefNone;
};

/**
 * Textbook matrix arbiter: a full n x n bool matrix, O(n^2) pick.
 * Row i column j true means i outranks j.
 */
class RefMatrixArbiter
{
  public:
    explicit RefMatrixArbiter(std::uint32_t n,
                              Mutation mut = Mutation::None)
        : n_(n), mut_(mut),
          outranks_(n, std::vector<bool>(n, false))
    {
        for (std::uint32_t i = 0; i < n_; ++i)
            for (std::uint32_t j = i + 1; j < n_; ++j)
                outranks_[i][j] = true;
    }

    std::uint32_t size() const { return n_; }

    /** Requestor outranked by no other requestor, or kRefNone. */
    std::uint32_t
    pick(const std::vector<bool> &req) const
    {
        for (std::uint32_t i = 0; i < n_; ++i) {
            if (!req[i])
                continue;
            bool wins = true;
            for (std::uint32_t j = 0; j < n_; ++j) {
                if (j != i && req[j] && outranks_[j][i]) {
                    wins = false;
                    break;
                }
            }
            if (wins)
                return i;
        }
        return kRefNone;
    }

    /** Demote @p winner below everyone. */
    void
    update(std::uint32_t winner)
    {
        std::uint32_t limit = n_;
        if (mut_ == Mutation::LrgUpdateOffByOne && n_ > 1)
            --limit; // seeded bug: last port's bits never rewritten
        for (std::uint32_t j = 0; j < limit; ++j) {
            if (j == winner)
                continue;
            outranks_[winner][j] = false;
            outranks_[j][winner] = true;
        }
    }

  private:
    std::uint32_t n_;
    Mutation mut_;
    std::vector<std::vector<bool>> outranks_;
};

/** Naive CLRG usage-counter bank (halve-then-increment on saturation). */
class RefClassCounterBank
{
  public:
    RefClassCounterBank(std::uint32_t num_inputs, std::uint32_t max_count,
                        Mutation mut = Mutation::None)
        : maxCount_(max_count), mut_(mut), count_(num_inputs, 0)
    {}

    std::uint32_t classOf(std::uint32_t input) const
    {
        return count_[input];
    }

    void
    onWin(std::uint32_t input)
    {
        if (count_[input] == maxCount_) {
            if (mut_ == Mutation::ClrgHalveWinnerOnly) {
                count_[input] /= 2; // seeded bug: bank not halved
            } else {
                for (auto &c : count_)
                    c /= 2;
            }
        }
        ++count_[input];
    }

  private:
    std::uint32_t maxCount_;
    Mutation mut_;
    std::vector<std::uint32_t> count_;
};

/**
 * Reference switch fabric covering every Topology x ArbScheme x
 * ChannelAlloc combination, with the same externally observable
 * contract as fabric::Fabric (arbitrate / release / holder queries /
 * failChannel) but an independent naive implementation. Grant-for-
 * grant equivalence with the optimized fabrics is enforced by
 * tests/check_test.cc and tools/fuzz_sim.
 */
class RefFabric
{
  public:
    explicit RefFabric(const SwitchSpec &spec,
                       Mutation mut = Mutation::None);

    const SwitchSpec &spec() const { return spec_; }

    /** One arbitration cycle; grant[i] == input i won end to end. */
    std::vector<bool> arbitrate(const std::vector<std::uint32_t> &req);

    void release(std::uint32_t input, std::uint32_t output);
    bool outputBusy(std::uint32_t o) const
    {
        return holder_[o] != kRefNone;
    }
    std::uint32_t outputHolder(std::uint32_t o) const
    {
        return holder_[o];
    }

    bool hasChannels() const { return !flat_; }

    /** Fail L2LC (s, d, k). A connection holding the channel
     *  mid-packet is forcibly broken and its victim appended to
     *  @p broken (when non-null). Idempotent on a failed channel. */
    void failChannel(std::uint32_t src_layer, std::uint32_t dst_layer,
                     std::uint32_t k,
                     std::vector<RefBrokenConn> *broken = nullptr);
    /** Return a failed channel to service (idempotent). */
    void recoverChannel(std::uint32_t src_layer,
                        std::uint32_t dst_layer, std::uint32_t k);
    /** Flat channel id held by @p o's connection, or kRefNone. */
    std::uint32_t heldChannelId(std::uint32_t o) const
    {
        return heldChan_[o];
    }
    bool channelBusy(std::uint32_t s, std::uint32_t d,
                     std::uint32_t k) const
    {
        return chanBusy_[chanId(s, d, k)];
    }
    bool channelFailed(std::uint32_t s, std::uint32_t d,
                       std::uint32_t k) const
    {
        return chanFailed_[chanId(s, d, k)];
    }

  private:
    struct SubReq
    {
        bool valid = false;
        std::uint32_t primaryInput = 0;
        std::uint32_t weight = 1;
    };

    std::uint32_t layerOf(std::uint32_t port) const
    {
        return port / ppl_;
    }
    std::uint32_t localIdx(std::uint32_t port) const
    {
        return port % ppl_;
    }
    std::uint32_t
    chanId(std::uint32_t s, std::uint32_t d, std::uint32_t k) const
    {
        return (s * nlay_ + d) * chan_ + k;
    }
    std::uint32_t subPort(std::uint32_t d, std::uint32_t s,
                          std::uint32_t k) const;
    void subPortOrigin(std::uint32_t d, std::uint32_t port,
                       std::uint32_t &s, std::uint32_t &k) const;
    std::uint32_t channelFor(std::uint32_t input,
                             std::uint32_t output) const;

    std::vector<bool>
    arbitrateFlat(const std::vector<std::uint32_t> &req);
    /** Naive twins of the arb::CrossbarScheduler strategies; their
     *  decision orders track scheduler.cc op for op (same pointer
     *  rules, same draw sequence) from independent plain-vector
     *  code. Called only when >= 1 input requests — the same gate
     *  the optimized fabric applies — so per-call state stays
     *  aligned across stepping modes. */
    std::vector<bool>
    islipFlat(const std::vector<std::uint32_t> &req);
    std::vector<bool>
    pimFlat(const std::vector<std::uint32_t> &req);
    std::vector<bool>
    wavefrontFlat(const std::vector<std::uint32_t> &req);
    /** Requestor matrix over free outputs; shared by the naive flat
     *  schedulers. want[o][i], pending[o] = column o has requestors. */
    void collectFlat(const std::vector<std::uint32_t> &req,
                     std::vector<std::vector<bool>> &want,
                     std::vector<bool> &pending) const;
    std::vector<bool>
    arbitrateHiRise(const std::vector<std::uint32_t> &req);
    /** Final-stage sub-block arbitration for output @p o, replicating
     *  the configured scheme; commits priority-state updates. */
    std::uint32_t subArbitrate(std::uint32_t o,
                               const std::vector<SubReq> &reqs);

    SwitchSpec spec_;
    Mutation mut_;
    bool flat_;           //!< Flat2D / Folded3D single-stage datapath
    std::uint32_t ppl_, nlay_, chan_, ports_;

    /** Flat: per-output column LRG over all inputs.
     *  HiRise: per-intermediate-output column LRG over one layer. */
    std::vector<RefMatrixArbiter> colArb_;
    std::vector<RefMatrixArbiter> chanArb_;      //!< per chanId
    std::vector<RefMatrixArbiter> subLrg_;       //!< per output
    std::vector<std::vector<std::uint32_t>> subWins_; //!< WLRG holds
    std::vector<RefClassCounterBank> subCounters_;    //!< CLRG banks

    std::vector<std::uint32_t> holder_;
    std::vector<std::uint32_t> heldChan_;
    std::vector<bool> chanBusy_;
    std::vector<bool> chanFailed_;

    // -- naive flat-scheduler state (Islip / Pim / Wavefront) --------
    std::vector<std::uint32_t> islipGrant_;  //!< per output column
    std::vector<std::uint32_t> islipAccept_; //!< per input
    std::uint64_t pimKey_ = 0;               //!< counter-RNG key
    std::uint64_t pimTick_ = 0;              //!< next draw index
    std::uint32_t wfPrio_ = 0;               //!< priority diagonal
};

} // namespace hirise::check

#endif // HIRISE_CHECK_ORACLE_HH
