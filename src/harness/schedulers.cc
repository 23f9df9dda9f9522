/**
 * @file
 * Scheduler-matrix experiment family: every single-stage crossbar
 * scheduler (LRG, iSLIP at 1 and 4 iterations, PIM, wavefront) runs
 * across every analytic traffic pattern and a load grid, reporting
 * throughput against the offline maximum-weight-matching fluid bound
 * (sim/mwm_bound.hh) plus latency and Jain fairness. This is the
 * extension counterpart of Table V for the flat 2D datapath: the
 * paper only studies LRG-family arbitration, so the matrix quantifies
 * how much headroom iterative and randomized matching leave on the
 * table for a 3D-integration-friendly single-cycle arbiter.
 */

#include "harness/experiments.hh"

#include <memory>
#include <vector>

#include "sim/mwm_bound.hh"
#include "traffic/pattern.hh"

namespace hirise::harness {

namespace {

constexpr std::uint32_t kSchedRadix = 32;

struct SchemeEntry
{
    const char *label;
    SwitchSpec spec;
};

std::vector<SchemeEntry>
schedSchemes()
{
    SwitchSpec base = spec2d(kSchedRadix);
    std::vector<SchemeEntry> out;
    out.push_back({"LRG", base});

    SwitchSpec s = base;
    s.arb = ArbScheme::Islip;
    s.schedIters = 1;
    out.push_back({"iSLIP/1", s});
    s.schedIters = 4;
    out.push_back({"iSLIP/4", s});

    s = base;
    s.arb = ArbScheme::Pim;
    s.schedIters = 2;
    out.push_back({"PIM/2", s});

    s = base;
    s.arb = ArbScheme::Wavefront;
    out.push_back({"WF", s});
    return out;
}

struct PatternEntry
{
    const char *label;
    sim::PatternFactory make;
};

std::vector<PatternEntry>
schedPatterns()
{
    const std::uint32_t r = kSchedRadix;
    return {
        {"uniform",
         [r] { return std::make_shared<traffic::UniformRandom>(r); }},
        {"hotspot",
         [r] {
             return std::make_shared<traffic::Hotspot>(r, r - 1);
         }},
        {"transpose",
         [r] { return std::make_shared<traffic::Transpose>(r); }},
        {"bit-comp",
         [r] { return std::make_shared<traffic::BitComplement>(r); }},
        {"bursty",
         [r] { return std::make_shared<traffic::Bursty>(r, 8.0); }},
    };
}

std::vector<double>
schedLoads(const ExperimentOptions &opt)
{
    if (opt.quick)
        return {0.3, 0.7, 1.0};
    return {0.1, 0.3, 0.5, 0.7, 0.9, 1.0};
}

/** results[pattern][load][scheme], each (scheme, pattern) family
 *  evaluated through sim::runPointsCached so the campaign cache sees
 *  the same access pattern as the figure suites. */
std::vector<std::vector<std::vector<sim::SimResult>>>
runSchedMatrix(const ExperimentOptions &opt,
               const std::vector<SchemeEntry> &schemes,
               const std::vector<PatternEntry> &patterns,
               const std::vector<double> &loads)
{
    std::vector<std::vector<std::vector<sim::SimResult>>> res(
        patterns.size(),
        std::vector<std::vector<sim::SimResult>>(
            loads.size(),
            std::vector<sim::SimResult>(schemes.size())));
    std::vector<sim::RunPoint> pts;
    for (double load : loads)
        pts.push_back({load, opt.simConfig().seed});
    for (std::size_t p = 0; p < patterns.size(); ++p) {
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            auto r = sim::runPointsCached(schemes[s].spec,
                                          opt.simConfig(),
                                          patterns[p].make, pts);
            for (std::size_t l = 0; l < loads.size(); ++l)
                res[p][l][s] = std::move(r[l]);
        }
    }
    return res;
}

} // namespace

Table
schedThroughput(const ExperimentOptions &opt)
{
    auto schemes = schedSchemes();
    auto patterns = schedPatterns();
    auto loads = schedLoads(opt);
    auto res = runSchedMatrix(opt, schemes, patterns, loads);

    Table t("Scheduler matrix: accepted flits/cycle vs offered load "
            "(flat 2D, radix 32), with the offline MWM fluid bound");
    std::vector<std::string> hdr{"Pattern", "Load", "MWM bound"};
    for (const auto &s : schemes)
        hdr.push_back(s.label);
    t.header(hdr);

    const std::uint32_t plen = opt.simConfig().packetLen;
    for (std::size_t p = 0; p < patterns.size(); ++p) {
        auto proto = patterns[p].make();
        for (std::size_t l = 0; l < loads.size(); ++l) {
            std::vector<std::string> row{
                patterns[p].label, Table::num(loads[l], 1),
                Table::num(sim::mwmAcceptedFlitsBound(
                               kSchedRadix, plen, *proto, loads[l]),
                           2)};
            for (std::size_t s = 0; s < schemes.size(); ++s)
                row.push_back(Table::num(
                    res[p][l][s].acceptedFlitsPerCycle, 2));
            t.row(row);
        }
    }
    return t;
}

Table
schedLatency(const ExperimentOptions &opt)
{
    auto schemes = schedSchemes();
    auto patterns = schedPatterns();
    auto loads = schedLoads(opt);
    auto res = runSchedMatrix(opt, schemes, patterns, loads);

    Table t("Scheduler matrix: mean packet latency (cycles) vs "
            "offered load (flat 2D, radix 32)");
    std::vector<std::string> hdr{"Pattern", "Load"};
    for (const auto &s : schemes)
        hdr.push_back(s.label);
    t.header(hdr);

    for (std::size_t p = 0; p < patterns.size(); ++p) {
        for (std::size_t l = 0; l < loads.size(); ++l) {
            std::vector<std::string> row{patterns[p].label,
                                         Table::num(loads[l], 1)};
            for (std::size_t s = 0; s < schemes.size(); ++s)
                row.push_back(Table::num(
                    res[p][l][s].avgLatencyCycles, 1));
            t.row(row);
        }
    }
    return t;
}

Table
schedFairness(const ExperimentOptions &opt)
{
    auto schemes = schedSchemes();
    auto patterns = schedPatterns();
    auto loads = schedLoads(opt);
    auto res = runSchedMatrix(opt, schemes, patterns, loads);

    Table t("Scheduler matrix: Jain fairness index vs offered load "
            "(flat 2D, radix 32)");
    std::vector<std::string> hdr{"Pattern", "Load"};
    for (const auto &s : schemes)
        hdr.push_back(s.label);
    t.header(hdr);

    for (std::size_t p = 0; p < patterns.size(); ++p) {
        for (std::size_t l = 0; l < loads.size(); ++l) {
            std::vector<std::string> row{patterns[p].label,
                                         Table::num(loads[l], 1)};
            for (std::size_t s = 0; s < schemes.size(); ++s)
                row.push_back(
                    Table::num(res[p][l][s].fairness, 3));
            t.row(row);
        }
    }
    return t;
}

} // namespace hirise::harness
