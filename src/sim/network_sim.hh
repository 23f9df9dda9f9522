/**
 * @file
 * Cycle-accurate single-switch network simulator (paper section V):
 * open-loop injection into unbounded source queues, 4 VCs x 4-flit
 * buffers per input, 4-flit packets, connection-held matrix-switch
 * timing (one arbitration cycle, then one flit per data cycle).
 */

#ifndef HIRISE_SIM_NETWORK_SIM_HH
#define HIRISE_SIM_NETWORK_SIM_HH

#include <memory>
#include <vector>

#include "common/bitvec.hh"
#include "common/random.hh"
#include "common/spec.hh"
#include "common/stats.hh"
#include "fabric/fabric.hh"
#include "fabric/switch_core.hh"
#include "net/input_port.hh"
#include "net/packet.hh"
#include "sim/fault.hh"
#include "sim/inject_wheel.hh"
#include "sim/virtual_queue.hh"
#include "traffic/pattern.hh"

namespace hirise::sim {

struct SimConfig
{
    std::uint32_t numVcs = 4;
    std::uint32_t vcDepth = 4;    //!< flits per VC
    std::uint32_t packetLen = 4;  //!< flits per packet
    double injectionRate = 0.1;   //!< packets/input/cycle (active inputs)
    net::Cycle warmupCycles = 10000;
    net::Cycle measureCycles = 50000;
    std::uint64_t seed = 1;
    /** Arm the process-wide cycle tracer for this run (convenience
     *  switch-on; equivalent to obs::CycleTracer::global().enable()).
     *  Never part of the SimCache key: tracing records events but
     *  must not change any simulated outcome. */
    bool trace = false;
    /**
     * Use the dense per-cycle reference core instead of the
     * event-driven core: scan every input every cycle for injection,
     * fill, and arbitration candidates, and rebuild output-free state
     * from the fabric each cycle. Both cores consume the same
     * counter-based RNG streams and produce bit-identical SimResults
     * (enforced by tests/stepping_test.cc and the fuzzer's
     * stepping-mode axis); dense mode exists for A/B validation and
     * perf baselines. Never part of the SimCache key.
     */
    bool denseStepping = false;
    /**
     * Pin materialized source queues. A memoryless run normally keeps
     * virtual source queues at every load (sim/virtual_queue.hh): a
     * pending count and a head packet per input, and a per-cycle
     * injection log. Results and snapshot bytes below load 1 are
     * bit-identical either way (tests/sat_fastpath_test.cc), so this
     * is a pure A/B perf knob. Never part of the SimCache key; part
     * of the snapshot configKey() when set, because a saturated
     * run's snapshot layout depends on it.
     */
    bool legacySatQueues = false;
};

/** Aggregated results over the measurement window. */
struct SimResult
{
    double offeredFlitsPerCycle = 0.0;
    double acceptedFlitsPerCycle = 0.0;
    double avgLatencyCycles = 0.0; //!< packet gen -> tail delivered
    double p99LatencyCycles = 0.0;
    /** Mean cycles from packet creation to winning arbitration
     *  (source queueing + head-of-line + retries); the remainder of
     *  avgLatencyCycles is pure service time. */
    double avgQueueingCycles = 0.0;
    std::uint64_t packetsDelivered = 0;
    /** Packets injected inside the measurement window but still in
     *  flight (source queue, VC, or crossbar) when it closed. Their
     *  latency is right-censored: avgLatencyCycles/p99LatencyCycles
     *  cover delivered packets only, so a large value here means the
     *  latency aggregates are biased low (saturation). See
     *  docs/TESTING.md "Latency censoring". */
    std::uint64_t inFlightAtMeasureEnd = 0;
    /** Delivered-packet latency samples that fell beyond the latency
     *  histogram's last regular bin. Nonzero means p99LatencyCycles
     *  is clamped to the overflow edge and reads ">=", not "=". */
    std::uint64_t latencyOverflowPackets = 0;
    /** Packets dropped over the whole run because a fault forcibly
     *  broke their connection mid-transfer (warmup included). Always
     *  0 without a fault schedule. */
    std::uint64_t packetsDropped = 0;
    /** Mean packet latency per source input (Fig 11a). */
    std::vector<double> perInputLatency;
    /** Delivered packets/cycle per source input (Fig 11c). */
    std::vector<double> perInputThroughput;
    /** Jain fairness index over participating inputs' throughput. */
    double fairness = 1.0;

    double
    acceptedPacketsPerCycle(std::uint32_t packet_len) const
    {
        return acceptedFlitsPerCycle / packet_len;
    }
};

class NetworkSim
{
  public:
    /** Load that splits the benchmark program's "low" and "mid"
     *  regimes (perfbench/src/points.cc). It selects no code path:
     *  every memoryless load runs on the injection wheel in event
     *  mode. */
    static constexpr double kInjHeapMaxRate = 0.125;

    NetworkSim(const SwitchSpec &spec, const SimConfig &cfg,
               std::shared_ptr<traffic::TrafficPattern> pattern);

    /** As above, but with a caller-supplied fabric (an oracle, a
     *  lockstep differential fabric, or a pre-faulted instance). */
    NetworkSim(const SwitchSpec &spec, const SimConfig &cfg,
               std::shared_ptr<traffic::TrafficPattern> pattern,
               std::unique_ptr<fabric::Fabric> fabric);

    /** Attach a fault schedule. Must be called before the first
     *  step (events are relative to cycle 0); requires a fabric with
     *  failable channels. */
    void setFaultSchedule(const FaultSchedule &sched);

    /** Run warmup + measurement; returns the aggregated result.
     *  Boundaries are absolute (warmup ends at cycle
     *  cfg.warmupCycles, measurement at warmup + measure), so a
     *  restored simulator picks up run() mid-flight and produces a
     *  bit-identical SimResult. */
    SimResult run();

    /** Advance to absolute cycle @p target (no-op when already
     *  there), flipping the measurement window on/off at the exact
     *  run() boundaries. run() == advanceTo(end) + aggregation. */
    void advanceTo(net::Cycle target);

    /** Advance exactly one switch cycle (exposed for unit tests).
     *  Identical observable semantics in both stepping modes. */
    void step() { stepTo(cycle_ + 1); }

    net::Cycle now() const { return cycle_; }
    const fabric::Fabric &fabricRef() const { return core_.fabric(); }
    net::InputPort &port(std::uint32_t i) { return ports_[i]; }
    const FaultManager &faultManager() const { return faultMgr_; }

    /** Flits still inside source queues, VCs, or in flight. */
    std::uint64_t backlogFlits() const;

    std::uint64_t totalInjectedPackets() const { return injected_; }
    std::uint64_t totalDeliveredPackets() const { return delivered_; }
    std::uint64_t totalDeliveredFlits() const { return flitsDelivered_; }
    std::uint64_t totalDroppedPackets() const { return packetsDropped_; }
    std::uint64_t totalDroppedFlits() const { return droppedFlits_; }

    // -- checkpoint/restore ------------------------------------------

    /** Serialize full simulator state (cycle, ports, fabric, fault
     *  manager, pattern state, measurement accumulators). load() runs
     *  on a freshly constructed sim with identical spec/config/
     *  pattern/schedule; derived structures are rebuilt. */
    void save(snap::Writer &w) const;
    void load(snap::Reader &r);

    /** Content hash of the configuration (spec + SimConfig + pattern
     *  descriptor + fault descriptor); embedded in snapshot files so
     *  cross-configuration restores are rejected. */
    std::uint64_t configKey() const;

    /** save()/load() framed through common/snapshot.hh's versioned,
     *  checksummed file format. False on I/O or validation failure
     *  (the sim is untouched on a failed load). */
    bool saveSnapshotFile(const std::string &path) const;
    bool loadSnapshotFile(const std::string &path);

    /** True when this run keeps virtual source queues (memoryless
     *  pattern, materialized queues not pinned). Exposed for tests
     *  asserting path activation. */
    bool virtualSourceQueuesActive() const { return vqOn_; }

    /** Packets queued at input @p i's source, the head included
     *  until its last flit streamed into a VC (either queue mode). */
    std::uint64_t
    queuedPackets(std::uint32_t i) const
    {
        return vqOn_ ? vq_.pending(i) : ports_[i].sourceQueue().size();
    }

    /** Seed the check::Mutation::QueueIdOffByOne bug into the virtual
     *  source queues (fuzzer and mutation tests only). */
    void mutateQueueIds() { vq_.mutIdOffByOne = true; }

  private:
    /** Advance at least one cycle, never past @p bound (so warmup /
     *  measurement boundaries stay exact across fast-forwards). */
    void stepTo(net::Cycle bound);
    void stepOnce();

    void injectCycle();
    /** The inputs in word @p k's @p bits inject this cycle. */
    void injectWord(std::uint32_t k, BitVec::Word bits);
    void fillPhase();
    void arbitrateCycle();
    void transferCycle();

    /** Tear down connections the fabric broke on channel failure:
     *  drop the in-flight packets, charge the dropped-flit ledger,
     *  and book the teardowns in the switch core. */
    void handleBroken(const std::vector<fabric::BrokenConn> &broken);
    /** load() for the virtual source queues, after the ports. */
    void loadVirtualQueues(snap::Reader &r);
    /** Rebuild every derived structure (the switch core's input and
     *  output sets, the fill bitset, the injection wheel) from
     *  restored port + fabric state. */
    void rebuildDerived();
    net::Cycle warmEnd() const { return cfg_.warmupCycles; }
    net::Cycle runEnd() const
    {
        return cfg_.warmupCycles + cfg_.measureCycles;
    }

    bool canFastForward() const;
#ifdef HIRISE_CHECK_ENABLED
    void checkInvariants() const;
#endif

    SwitchSpec spec_;
    SimConfig cfg_;
    std::shared_ptr<traffic::TrafficPattern> pattern_;
    /** Fabric and protocol. The ports keep the connection record
     *  (snapshot state); load() re-derives the core's sets. */
    fabric::SwitchCore core_;
    std::vector<net::InputPort> ports_;
    /** Event-driven core enabled (== !cfg_.denseStepping). */
    bool event_;
    /** Pattern has no per-input state: injections can be scheduled
     *  ahead as events and idle spans fast-forwarded. */
    bool memoryless_;
    /** Event mode schedules injections on wheel_ (memoryless
     *  patterns, at every load), which also lets quiescent spans be
     *  fast-forwarded to the next injection. Otherwise every input is
     *  polled every cycle: the dense reference core, and stateful
     *  patterns, whose injectAt must see every cycle. The counter RNG
     *  makes both produce the same injections. */
    bool wheelOn_;
    InjectionWheel wheel_;
    /** Virtual source queues live for this run (memoryless pattern,
     *  materialized queues not pinned via cfg_.legacySatQueues), in
     *  both stepping modes. The ports' RingBuffer queues then stay
     *  empty: injection bumps vq_'s counts and log, fillPhase()
     *  streams from vq_'s heads, and backlogFlits() reads the counts. */
    bool vqOn_;
    VirtualSourceQueues vq_;

    std::vector<std::uint32_t> candVcScratch_; //!< VC picked, per input
    /** Inputs with a non-empty source queue, real or virtual
     *  (covers in-flight fills: a packet leaves the queue only after
     *  its last flit). fillPhase() visits only these. */
    BitVec fillPending_;

    /** Fault machinery live for this run (non-empty schedule). The
     *  hot path pays one predictable branch per phase when off. */
    bool faultsOn_ = false;
    FaultManager faultMgr_;
    /** Victim scratch for beginCycle/applyPending fault breaks. */
    std::vector<fabric::BrokenConn> brokenScratch_;

    net::Cycle cycle_ = 0;
    net::PacketId nextId_ = 1;
    std::uint64_t injected_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t flitsDelivered_ = 0;
    /** Flits of fault-dropped packets never delivered; completes the
     *  conservation identity injected*len == delivered + backlog +
     *  dropped. */
    std::uint64_t droppedFlits_ = 0;
    std::uint64_t packetsDropped_ = 0;

    // Measurement-window accounting.
    bool measuring_ = false;
    net::Cycle measureStart_ = 0;
    std::uint64_t measFlitsDelivered_ = 0;
    std::uint64_t measFlitsOffered_ = 0;
    /** Packets injected during the window / delivered packets that
     *  were injected during the window; the difference at window
     *  close, net of window-injected drops, is the right-censored
     *  population (inFlightAtMeasureEnd). */
    std::uint64_t measPacketsInjected_ = 0;
    std::uint64_t measPacketsCompleted_ = 0;
    std::uint64_t measPacketsDropped_ = 0;
    RunningStat latency_;
    RunningStat queueing_;
    Histogram latencyHist_{4.0, 4096};
    std::vector<RunningStat> perInputLatency_;
    std::vector<std::uint64_t> perInputPackets_;
};

} // namespace hirise::sim

#endif // HIRISE_SIM_NETWORK_SIM_HH
