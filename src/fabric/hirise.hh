/**
 * @file
 * The Hi-Rise hierarchical 3D switch fabric (paper section III).
 *
 * Per layer: a local switch (N/L inputs x [N/L intermediate outputs +
 * c*(L-1) outgoing L2LCs]) and an inter-layer switch of N/L sub-blocks
 * (each (c*(L-1)+1) x 1). Arbitration is two-phase within a single
 * cycle: phase 1 resolves each local-switch column, phase 2 resolves
 * each sub-block; an input only holds resources on an end-to-end win,
 * and local LRG state is updated only when the inter-layer stage
 * confirms the win (back-propagated update, section III-B1).
 */

#ifndef HIRISE_FABRIC_HIRISE_HH
#define HIRISE_FABRIC_HIRISE_HH

#include <memory>

#include "arb/matrix_arbiter.hh"
#include "arb/sub_block_arbiter.hh"
#include "fabric/fabric.hh"

namespace hirise::fabric {

class HiRiseFabric : public Fabric
{
  public:
    explicit HiRiseFabric(const SwitchSpec &spec);

    const BitVec &
    arbitrate(std::span<const std::uint32_t> req) override;
    const BitVec &
    arbitrateActive(std::span<const std::uint32_t> req,
                    std::span<const std::uint32_t> active) override;
    void release(std::uint32_t input, std::uint32_t output) override;
    void advanceIdle(std::uint64_t cycles) override;
    bool outputBusy(std::uint32_t output) const override;
    std::uint32_t outputHolder(std::uint32_t output) const override;

    // -- topology helpers (also used by tests) -----------------------
    std::uint32_t layerOf(std::uint32_t port) const
    {
        return port_[port].layer;
    }
    std::uint32_t localIdx(std::uint32_t port) const
    {
        return port_[port].local;
    }

    /** L2LC chosen by the allocation policy for input -> output,
     *  after remapping around failed channels; kNoRequest when no
     *  usable channel survives (binned policies only). */
    std::uint32_t channelFor(std::uint32_t input,
                             std::uint32_t output) const;

    /**
     * Disable the L2LC (src layer, dst layer, k), e.g. a failed TSV
     * bundle. Binned traffic remaps to the next surviving channel of
     * the same layer pair; the priority allocator skips failed
     * channels natively. A connection holding the channel mid-packet
     * is forcibly broken and reported through @p broken (the simulator
     * drops the in-flight packet). Idempotent. Extension beyond the
     * paper (TSV yield tolerance).
     */
    void failChannel(std::uint32_t src_layer, std::uint32_t dst_layer,
                     std::uint32_t chan,
                     std::vector<BrokenConn> *broken = nullptr)
        override;

    /** Re-enable a failed L2LC (TSV repair / isolation lifted). */
    void recoverChannel(std::uint32_t src_layer,
                        std::uint32_t dst_layer,
                        std::uint32_t chan) override;

    bool supportsChannelFaults() const override { return true; }

    std::uint32_t heldChannelId(std::uint32_t output) const override
    {
        return heldChan_[output];
    }

    bool channelFailed(std::uint32_t src_layer,
                       std::uint32_t dst_layer, std::uint32_t k) const
    {
        return chanFailed_[chanId(src_layer, dst_layer, k)] != 0;
    }

    /** Surviving (non-failed) L2LCs of the pair src -> dst. */
    std::uint32_t survivingChannels(std::uint32_t src_layer,
                                    std::uint32_t dst_layer) const;

    /** Total surviving L2LCs across all layer pairs — the capacity
     *  the fabric currently advertises (== c*L*(L-1) when healthy).
     *  Re-published to the "fabric.advertised_capacity" gauge on
     *  every fail/recover so dashboards track degradation live. */
    std::uint32_t advertisedCapacity() const;

    void save(snap::Writer &w) const override;
    void load(snap::Reader &r) override;

    /** Is the L2LC (src layer, dst layer, k) held by a connection? */
    bool channelBusy(std::uint32_t src_layer, std::uint32_t dst_layer,
                     std::uint32_t k) const;

    /** The sub-block arbiter of a final output (test introspection). */
    const arb::SubBlockArbiter &subArbiter(std::uint32_t output) const
    {
        return *subArb_[output];
    }

    /** Observability counters since construction. */
    struct Stats
    {
        std::uint64_t grantsLocal = 0; //!< same-layer connections
        std::uint64_t grantsCross = 0; //!< connections over an L2LC
        /** Grants carried per L2LC, indexed by chanId order
         *  (src_layer * layers + dst_layer) * channels + k. */
        std::vector<std::uint64_t> chanGrants;
        /** Cycles each L2LC spent held by a connection: one per
         *  arbitrate call or idle cycle after the grant call, up to
         *  the release or the fault that broke the connection. */
        std::vector<std::uint64_t> chanBusyCycles;
    };
    /** A copy with every held channel's open span counted in. */
    Stats stats() const;

    /** Utilization of L2LC (s,d,k): busy cycles / arbitrate calls. */
    double channelUtilization(std::uint32_t s, std::uint32_t d,
                              std::uint32_t k) const;

  private:
    // -- static shape -------------------------------------------------
    std::uint32_t ppl_;   //!< ports per layer
    std::uint32_t nlay_;  //!< layers
    std::uint32_t chan_;  //!< channel multiplicity c
    std::uint32_t ports_; //!< sub-block ports: c*(L-1)+1

    std::uint32_t
    chanId(std::uint32_t s, std::uint32_t d, std::uint32_t k) const
    {
        return (s * nlay_ + d) * chan_ + k;
    }

    // -- shape tables, built once so the per-request paths divide by
    //    nothing -------------------------------------------------------
    struct PortInfo
    {
        std::uint32_t layer; //!< port / ppl_
        std::uint32_t local; //!< port % ppl_
        std::uint32_t bin;   //!< binned channel: local % chan_
    };
    std::vector<PortInfo> port_; //!< per global port
    struct ChanInfo
    {
        std::uint32_t srcBase; //!< first global port of the src layer
        /** Sub-block port of this L2LC at its destination: source
         *  layers ascending, the local layer skipped, c ports each;
         *  the last sub-block port (ports_-1) is the local
         *  intermediate output. Unused on the s == d diagonal. */
        std::uint32_t subPort;
    };
    std::vector<ChanInfo> chanInfo_; //!< per chanId
    /** Inverse of ChanInfo::subPort: chanId of (dst layer d, sub-block
     *  port p) at d * ports_ + p, for p below ports_-1. */
    std::vector<std::uint32_t> subPortChan_;

    // -- arbitration state --------------------------------------------
    /** Phase-1 LRG per local intermediate-output column, indexed by
     *  global output id. */
    std::vector<arb::MatrixArbiter> interArb_;
    /** Phase-1 LRG per L2LC column, indexed by chanId. */
    std::vector<arb::MatrixArbiter> chanArb_;
    /** Phase-2 arbiter per final output. */
    std::vector<std::unique_ptr<arb::SubBlockArbiter>> subArb_;

    // -- connection state ----------------------------------------------
    std::vector<std::uint32_t> holder_;   //!< per output
    std::vector<std::uint32_t> heldChan_; //!< per output; kNoRequest
    /** Busy/failed flags per chanId, 0/1 in flat byte arrays (the
     *  snapshot's layout). */
    std::vector<std::uint8_t> chanBusy_;
    std::vector<std::uint8_t> chanFailed_;
    /** Some chanFailed_ entry is set: channelFor's remap probe runs
     *  only then. */
    bool anyFailed_ = false;
    /** Lazy busy-cycle accounting: a busy channel's count is
     *  stats_.chanBusyCycles[id] + (arbitrateCalls_ - busySince_[id]),
     *  the stamp being arbitrateCalls_ at the grant call. Release and
     *  a fault's forced break close the span into stats_, so neither
     *  an arbitrate call nor advanceIdle touches a channel. */
    std::vector<std::uint64_t> busySince_;

    // -- per-cycle scratch (members to avoid reallocation) -------------
    struct ColumnState
    {
        BitVec mask;              //!< requesting local inputs
        bool active = false;      //!< mask has >= 1 requestor
        std::uint32_t winner = arb::MatrixArbiter::kNone;
        std::uint32_t weight = 0; //!< requestor count (WLRG)
        std::uint32_t winnerDst = 0; //!< global dst of the winner
    };
    std::vector<ColumnState> interCol_; //!< by global output id
    std::vector<ColumnState> chanCol_;  //!< by chanId
    /** Columns touched this cycle (reset lazily next cycle), so every
     *  per-cycle pass scales with offered traffic, not with radix^2
     *  worth of idle columns. */
    std::vector<std::uint32_t> activeInter_; //!< global output ids
    std::vector<std::uint32_t> activeChan_;  //!< chanIds
    BitVec contendedOut_; //!< outputs with >= 1 phase-1 winner
    BitVec remaining_;  //!< Priority-alloc pool walk scratch
    std::vector<arb::SubBlockRequest> subReqs_; //!< phase-2 scratch
    /** Requesting-input indices compacted from the dense request
     *  vector (simd::gatherNonSentinelU32 scratch). */
    std::vector<std::uint32_t> reqIdxScratch_;
    /** Per-output chains of this cycle's channel winners, built while
     *  finishArbitrate records winner destinations: outChanHead_[o]
     *  heads an intrusive list linked through chanNext_[chanId]. The
     *  phase-2 walk then visits exactly the channels targeting each
     *  contended output instead of scanning all (layer, channel)
     *  columns per output. Chains are consumed (reset to kNoRequest)
     *  by phase2, held outputs included. */
    std::vector<std::uint32_t> chanNext_;    //!< per chanId
    std::vector<std::uint32_t> outChanHead_; //!< per output
    /** Sub-block ports filled for the current output, for sparse
     *  reset of subReqs_ (kept all-invalid between outputs). */
    std::vector<std::uint32_t> filledPorts_;

    void resetScratch();
    /** Busy cycles of chanId @p id, the open span included. */
    std::uint64_t busyCycles(std::uint32_t id) const
    {
        return stats_.chanBusyCycles[id] +
               (chanBusy_[id] ? arbitrateCalls_ - busySince_[id] : 0);
    }
    /** Free busy channel @p id, closing its span into stats_. */
    void closeBusySpan(std::uint32_t id);
    void beginArbitrate();
    void collectRequest(std::uint32_t i, std::uint32_t o);
    void collectRequests(std::span<const std::uint32_t> req);
    const BitVec &finishArbitrate(std::span<const std::uint32_t> req);
    void phase1();
    void phase2();
#ifdef HIRISE_CHECK_ENABLED
    void checkInvariants(std::span<const std::uint32_t> req) const;
#endif

    /** chanBusyCycles here holds closed spans only; see busySince_. */
    Stats stats_;
    std::uint64_t arbitrateCalls_ = 0;
};

} // namespace hirise::fabric

#endif // HIRISE_FABRIC_HIRISE_HH
