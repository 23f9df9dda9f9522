/**
 * @file
 * Runtime invariant checks for the simulation core, compiled in under
 * the HIRISE_CHECK build option (-DHIRISE_CHECK=ON defines
 * HIRISE_CHECK_ENABLED globally). Call sites in src/sim and src/fabric
 * are wrapped in #ifdef HIRISE_CHECK_ENABLED, so default builds do not
 * even include this header and carry zero overhead.
 *
 * The checks encode the algebraic structure of input-queued switch
 * scheduling: every per-cycle grant set is a partial permutation
 * matrix (conflict-free matching of inputs to outputs), flits are
 * conserved end to end, VC buffers respect their depth and packet
 * ownership rules, and CLRG class counters stay thermometer-encodable.
 * Violations are simulator bugs, so every check panic()s via
 * sim_assert.
 */

#ifndef HIRISE_CHECK_INVARIANTS_HH
#define HIRISE_CHECK_INVARIANTS_HH

#include <cstdint>
#include <span>
#include <vector>

#include "arb/class_counter.hh"
#include "common/bitvec.hh"
#include "common/logging.hh"
#include "net/input_port.hh"

namespace hirise::check {

constexpr std::uint32_t kNoReq = ~0u;

/**
 * The grant set of one arbitration cycle must be a partial matching:
 * every granted input actually requested, its requested output is in
 * range, and the fabric now records that input as the output's holder
 * (i.e. no two grants collapsed onto one output).
 *
 * @param holderOf callable mapping output id -> holding input id (or
 *                 kNoReq); fabrics pass a lambda over their private
 *                 holder table.
 */
template <typename HolderFn>
inline void
verifyGrantMatching(std::span<const std::uint32_t> req,
                    const BitVec &grant, std::uint32_t radix,
                    HolderFn holderOf)
{
    sim_assert(grant.size() == radix, "grant vector size %u != radix %u",
               grant.size(), radix);
    grant.forEachSet([&](std::uint32_t i) {
        sim_assert(req[i] != kNoReq,
                   "granted input %u made no request", i);
        sim_assert(req[i] < radix,
                   "granted input %u requested bad output %u", i,
                   req[i]);
        sim_assert(holderOf(req[i]) == i,
                   "granted input %u does not hold output %u", i,
                   req[i]);
    });
}

/**
 * The held-connection set must also be a partial matching: no input
 * holds two outputs (each holder id appears at most once across the
 * holder table) and every holder id is a real input.
 */
template <typename HolderFn>
inline void
verifyHolderInjective(std::uint32_t radix, HolderFn holderOf)
{
    std::vector<bool> holds(radix, false);
    for (std::uint32_t o = 0; o < radix; ++o) {
        std::uint32_t h = holderOf(o);
        if (h == kNoReq)
            continue;
        sim_assert(h < radix, "output %u held by bad input %u", o, h);
        sim_assert(!holds[h], "input %u holds two outputs", h);
        holds[h] = true;
    }
}

/**
 * Flit conservation: every injected flit is either still inside the
 * switch (source queue or VC buffer), has been delivered, or was
 * dropped by a fault-forced connection break. Checked once per cycle
 * at the simulator level.
 */
inline void
verifyFlitConservation(std::uint64_t injected_flits,
                       std::uint64_t delivered_flits,
                       std::uint64_t backlog_flits,
                       std::uint64_t dropped_flits = 0)
{
    sim_assert(injected_flits ==
                   delivered_flits + backlog_flits + dropped_flits,
               "flit conservation violated: injected %llu != "
               "delivered %llu + backlog %llu + dropped %llu",
               static_cast<unsigned long long>(injected_flits),
               static_cast<unsigned long long>(delivered_flits),
               static_cast<unsigned long long>(backlog_flits),
               static_cast<unsigned long long>(dropped_flits));
}

/**
 * VC buffer consistency for one input port, on the VC counters: no
 * more flits sent than buffered and none buffered past the packet's
 * length, no buffer above its depth, an idle VC with both counters
 * at zero (packets never interleave within a VC), and a busy VC's
 * header bound for a real output.
 */
inline void
verifyVcState(const net::InputPort &port, std::uint32_t vc_depth,
              std::uint32_t radix)
{
    for (const auto &vc : port.vcs()) {
        sim_assert(vc.sent() <= vc.buffered(),
                   "VC sent %u flits of %u buffered", vc.sent(),
                   vc.buffered());
        sim_assert(vc.size() <= vc_depth,
                   "VC holds %u flits, depth is %u", vc.size(),
                   vc_depth);
        if (!vc.busy()) {
            sim_assert(vc.sent() == 0, "idle VC has %u flits sent",
                       vc.sent());
            continue;
        }
        sim_assert(vc.buffered() <= vc.packet().lenFlits,
                   "VC buffered %u flits of a %u-flit packet",
                   vc.buffered(), vc.packet().lenFlits);
        sim_assert(vc.packet().dst < radix,
                   "VC packet bound for output %u of %u",
                   vc.packet().dst, radix);
    }
}

/**
 * CLRG counter-bank bounds: every usage count must stay within
 * [0, maxCount], i.e. remain representable by the hardware thermometer
 * encoding. The divide-by-2 saturation rule guarantees this; a count
 * above maxCount means a missed halving.
 */
inline void
verifyClassCounterBounds(const arb::ClassCounterBank &bank)
{
    for (std::uint32_t i = 0; i < bank.numInputs(); ++i) {
        sim_assert(bank.classOf(i) <= bank.maxCount(),
                   "class counter %u = %u exceeds maxCount %u", i,
                   bank.classOf(i), bank.maxCount());
    }
}

} // namespace hirise::check

#endif // HIRISE_CHECK_INVARIANTS_HH
