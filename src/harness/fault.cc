/**
 * @file
 * TSV fault-tolerance study (extension beyond the paper): uniform-
 * random saturation throughput of the 4-channel Hi-Rise switch as
 * L2LCs fail and binned traffic remaps to the surviving channels of
 * each layer pair.
 */

#include "harness/experiments.hh"

#include "common/parallel.hh"
#include "fabric/hirise.hh"
#include "fabric/switch_core.hh"
#include "phys/model.hh"
#include "traffic/pattern.hh"

namespace hirise::harness {

namespace {

/** Saturated uniform-random throughput of the fabric alone: a
 *  fabric-capacity study, so there are no VCs or source queues to
 *  model, only inputs that each hold one packet and draw the next
 *  destination when it leaves. (NetworkSim takes fault schedules too,
 *  but would add its port model to the measurement.) */
double
faultedSaturation(std::uint32_t num_failed, std::uint64_t seed)
{
    SwitchSpec spec = specHiRise(4, ArbScheme::Clrg);
    auto fab = std::make_unique<fabric::HiRiseFabric>(spec);

    // Fail distinct channels in a fixed pseudo-random order.
    Rng pick(1234);
    std::uint32_t failed = 0;
    while (failed < num_failed) {
        std::uint32_t s = static_cast<std::uint32_t>(pick.below(4));
        std::uint32_t d = static_cast<std::uint32_t>(pick.below(4));
        std::uint32_t k = static_cast<std::uint32_t>(pick.below(4));
        if (s == d || fab->channelFailed(s, d, k))
            continue;
        fab->failChannel(s, d, k);
        ++failed;
    }
    fabric::SwitchCore core(std::move(fab));

    // Saturated closed-loop drive: every idle input immediately
    // requests a fresh uniform-random destination.
    Rng rng(seed);
    const std::uint32_t n = spec.radix;
    const std::uint32_t len = 4;
    std::vector<std::uint32_t> want(n);
    std::vector<std::uint32_t> left(n, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t d = static_cast<std::uint32_t>(rng.below(n - 1));
        want[i] = d >= i ? d + 1 : d;
        core.wake(i);
    }

    std::uint64_t flits = 0;
    const std::uint64_t cycles = 30000;
    for (std::uint64_t t = 0; t < cycles; ++t) {
        core.arbitrate(
            [&](std::uint32_t i) {
                return core.outputFree(want[i]) ? want[i]
                                                : fabric::kNoRequest;
            },
            [&](std::uint32_t i, std::uint32_t) { left[i] = len; });
        core.transfer([&](std::uint32_t i) {
            ++flits;
            if (--left[i] == 0) {
                core.release(i, true);
                std::uint32_t d =
                    static_cast<std::uint32_t>(rng.below(n - 1));
                want[i] = d >= i ? d + 1 : d;
            }
        });
    }
    return static_cast<double>(flits) / static_cast<double>(cycles);
}

} // namespace

Table
faultTolerance(const ExperimentOptions &opt)
{
    Table t("Extension: L2LC (TSV bundle) fault tolerance - UR "
            "saturation of the 64-radix 4-channel CLRG switch vs "
            "number of failed channels (48 total); binned traffic "
            "remaps to surviving channels");
    t.header({"Failed L2LCs", "Flits/cycle", "Tbps", "vs healthy"});
    phys::PhysModel model;
    double freq =
        model.evaluate(specHiRise(4, ArbScheme::Clrg)).freqGhz;
    std::vector<std::uint32_t> failCounts{0, 2, 4, 8, 12, 24};
    auto rates =
        parallelMap(failCounts, [&](const std::uint32_t &fails) {
            return faultedSaturation(fails, opt.seed);
        });
    double healthy = rates[0];
    for (std::size_t i = 0; i < failCounts.size(); ++i) {
        t.row({Table::integer(failCounts[i]), Table::num(rates[i], 2),
               Table::num(sim::toTbps(rates[i], freq, 128), 2),
               Table::num(100.0 * rates[i] / healthy, 1) + "%"});
    }
    return t;
}

} // namespace hirise::harness
