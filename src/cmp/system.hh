/**
 * @file
 * The 64-core single-switch system of paper section VI-D / Table III:
 * 2-way cores at 2 GHz, private L1s (misses modeled), 64 shared L2
 * banks (6-cycle access), 8 memory controllers (80 ns), 32 MSHRs, all
 * connected by one central switch running in its own clock domain at
 * the frequency given by the physical model.
 */

#ifndef HIRISE_CMP_SYSTEM_HH
#define HIRISE_CMP_SYSTEM_HH

#include <queue>
#include <vector>

#include "cmp/msg_switch.hh"
#include "cmp/transport.hh"
#include "cmp/workload.hh"
#include "common/bitvec.hh"
#include "common/random.hh"
#include "common/spec.hh"

namespace hirise::cmp {

/** Table III parameters plus core-model knobs. */
struct SystemConfig
{
    std::uint32_t numTiles = 64;
    std::uint32_t numMemCtrls = 8;
    double coreFreqGhz = 2.0;
    double switchFreqGhz = 2.0; //!< from the physical model
    std::uint32_t issueWidth = 2;
    std::uint32_t l2AccessCycles = 6;   //!< core cycles
    double memLatencyNs = 80.0;
    double memServiceNs = 1.0;          //!< 64 B over 4 DDR channels @16 GB/s
    std::uint32_t mshrsPerCore = 32;
    /** Outstanding misses a core tolerates before stalling (limited
     *  by the 2-way out-of-order window). */
    std::uint32_t maxOutstanding = 16;
    /** Probability a miss is a demand load the core must wait on. */
    double blockingFraction = 0.05;
    std::uint32_t switchVcs = 4;
    std::uint64_t seed = 1;
};

/** Per-core results. */
struct CoreStats
{
    std::uint64_t retired = 0;
    std::uint64_t misses = 0;
    std::uint64_t stallCycles = 0;
};

struct SystemResult
{
    double totalIpc = 0.0; //!< sum of per-core IPC
    double avgMissLatencyNs = 0.0;
    std::vector<CoreStats> cores;
    std::uint64_t networkMessages = 0;
};

/**
 * Trace-driven (synthetic-trace) execution of one workload mix on one
 * switch configuration.
 */
class CmpSystem
{
  public:
    /** Builds a transport once the system's delivery callback is
     *  known (the transport delivers messages back into the tiles). */
    using TransportFactory = std::function<std::unique_ptr<Transport>(
        Transport::DeliverFn)>;

    /** Central-switch system (the paper's main configuration). */
    CmpSystem(const SwitchSpec &switch_spec, const SystemConfig &cfg,
              std::vector<Benchmark> per_core);

    /** System over an arbitrary transport (e.g. a routed topology
     *  for the section VI-E comparison). cfg.switchFreqGhz clocks
     *  the transport. */
    CmpSystem(const TransportFactory &make_net,
              const SystemConfig &cfg,
              std::vector<Benchmark> per_core);

    /** Run for @p core_cycles core cycles (after @p warmup). */
    SystemResult run(std::uint64_t warmup, std::uint64_t core_cycles);

  private:
    struct Txn
    {
        bool inUse = false;
        bool blocking = false;
        bool l2Hit = true;
        std::uint64_t startCoreCycle = 0;
    };

    struct Core
    {
        Benchmark bench;
        std::vector<Txn> txns;
        std::uint64_t missThr = 0;  //!< bernoulliThreshold(mpki / 1000)
        std::uint64_t l2HitThr = 0; //!< bernoulliThreshold(l2HitRate)
        std::uint32_t outstanding = 0;
        std::uint32_t blockedOn = kNoTxn; //!< txn id or kNoTxn
        std::uint64_t retired = 0;
        std::uint64_t misses = 0;
        std::uint64_t stallCycles = 0;
        /** While the core is stalled: its first stall cycle not yet
         *  in stallCycles. */
        std::uint64_t stallFrom = 0;
    };

    static constexpr std::uint32_t kNoTxn = ~0u;

    /** Deferred tile-side completion (L2 access done, DRAM done). The
     *  heap orders (cycle, slot) keys; the message waits in a slab
     *  slot. Keys compare by cycle only, so ties pop in the order the
     *  heap's comparisons give, whatever the slot numbers. */
    struct Event
    {
        enum class Kind : std::uint32_t { L2Done, MemDone };
        std::uint64_t coreCycle;
        std::uint32_t slot; //!< into eventMsgs_
        Kind kind;
        bool operator>(const Event &o) const
        {
            return coreCycle > o.coreCycle;
        }
    };

    void stepCores();
    void coreCycleOne(std::uint32_t c);
    /** Core @p c stalls from the next cycle on: stop stepping it. */
    void parkCore(std::uint32_t c);
    /** Add core @p c 's stall cycles up to the current cycle. */
    void closeStall(Core &core);
    void pushEvent(std::uint64_t core_cycle, Event::Kind kind,
                   const Message &m);
    void onMessage(const Message &m);
    void l2Access(const Message &m);
    void l2Done(const Message &m);
    void memAccess(const Message &m);
    void memDone(const Message &m);
    void l2Respond(const Message &m);
    void finishTxn(const Message &m);
    void dispatchEvents();
    std::uint32_t pickMcTile();

    SystemConfig cfg_;
    std::vector<Core> cores_;
    std::unique_ptr<Transport> net_;
    Rng rng_;

    std::uint64_t blockThr_; //!< bernoulliThreshold(blockingFraction)

    std::uint64_t coreCycle_ = 0;
    bool counting_ = false;
    /** First counted core cycle; ~0 until counting starts. */
    std::uint64_t countFrom_ = ~std::uint64_t(0);
    std::uint64_t missLatAccumCycles_ = 0;
    std::uint64_t missLatCount_ = 0;
    /** Cores that issue this cycle. A blocked or window-full core
     *  leaves it, and its stall cycles accrue from Core::stallFrom
     *  until finishTxn re-arms it or a run ends. */
    BitVec issuing_;

    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events_;
    std::vector<Message> eventMsgs_;       //!< slab of pending events
    std::vector<std::uint32_t> freeSlots_; //!< free eventMsgs_ slots
    std::vector<std::uint64_t> l2FreeAt_;  //!< per tile, core cycles
    std::vector<std::uint64_t> mcFreeAt_;  //!< per MC tile index
};

} // namespace hirise::cmp

#endif // HIRISE_CMP_SYSTEM_HH
