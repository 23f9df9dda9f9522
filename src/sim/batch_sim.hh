/**
 * @file
 * Forwarder kept only for the benchmark program (perfbench/), whose
 * sources still evaluate points as replica lane groups. Every switch
 * point runs on the scalar NetworkSim; this maps the old lane-group
 * interface onto one NetworkSim per lane, and goes away with the next
 * change to the benchmark.
 */

#ifndef HIRISE_SIM_BATCH_SIM_HH
#define HIRISE_SIM_BATCH_SIM_HH

#include <functional>
#include <memory>
#include <vector>

#include "sim/network_sim.hh"

namespace hirise::sim {

/** One lane: the (offered load, seed) point it simulates. */
struct BatchPoint
{
    double load = 0.0;
    std::uint64_t seed = 0;
};

/** Per-lane fabric supplier; empty means fabric::makeFabric(spec). */
using FabricFactory = std::function<std::unique_ptr<fabric::Fabric>()>;

/** Always 1: runPointsCached runs every cache miss on its own. */
inline std::uint32_t batchReplicas() { return 1; }

class BatchSim
{
  public:
    BatchSim(const SwitchSpec &spec, const SimConfig &base,
             std::vector<std::shared_ptr<traffic::TrafficPattern>> pats,
             std::vector<BatchPoint> points,
             const FabricFactory &make_fabric = {})
    {
        for (std::size_t r = 0; r < points.size(); ++r) {
            SimConfig cfg = base;
            cfg.injectionRate = points[r].load;
            cfg.seed = points[r].seed;
            lanes_.push_back(
                make_fabric
                    ? std::make_unique<NetworkSim>(spec, cfg, pats[r],
                                                   make_fabric())
                    : std::make_unique<NetworkSim>(spec, cfg, pats[r]));
        }
    }

    std::vector<SimResult>
    run()
    {
        std::vector<SimResult> out;
        for (auto &lane : lanes_)
            out.push_back(lane->run());
        return out;
    }

    static bool usable() { return true; }

  private:
    std::vector<std::unique_ptr<NetworkSim>> lanes_;
};

} // namespace hirise::sim

#endif // HIRISE_SIM_BATCH_SIM_HH
