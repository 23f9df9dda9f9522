/**
 * @file
 * Forwarder kept only for the benchmark program (perfbench/), whose
 * sources still build the kilo-core mesh of paper section VI-E
 * through this interface. The mesh steps on GraphNoc over
 * LowRadixMesh::ofRouters; this maps the old configuration and result
 * onto it, and goes away with the next change to the benchmark.
 */

#ifndef HIRISE_NOC_MESH_HH
#define HIRISE_NOC_MESH_HH

#include "noc/graph_noc.hh"

namespace hirise::noc {

struct MeshConfig
{
    std::uint32_t width = 4;     //!< switches per row
    std::uint32_t height = 4;    //!< switches per column
    SwitchSpec router;           //!< per-router switch configuration
    std::uint32_t packetLen = 4; //!< flits
    std::uint32_t inputFifoPkts = 4; //!< packet slots per router input
    std::uint64_t seed = 1;
};

struct MeshResult
{
    double offeredPktsPerCycle = 0.0;
    double acceptedPktsPerCycle = 0.0;
    double avgLatencyCycles = 0.0;
    double avgHops = 0.0;
    std::uint64_t delivered = 0;
};

class MeshNoc
{
  public:
    explicit MeshNoc(const MeshConfig &cfg)
        : noc_(LowRadixMesh::ofRouters(cfg.width, cfg.height, cfg.router),
               cfg.router, cfg.packetLen, cfg.inputFifoPkts, cfg.seed)
    {}

    MeshResult
    run(double rate, net::Cycle warmup, net::Cycle measure)
    {
        GraphResult g = noc_.run(rate, warmup, measure);
        return {g.offeredPktsPerCycle, g.acceptedPktsPerCycle,
                g.avgLatencyCycles, g.avgRouterHops, g.delivered};
    }

    std::uint32_t numRouters() const
    {
        return noc_.topology().numRouters();
    }

  private:
    GraphNoc noc_;
};

} // namespace hirise::noc

#endif // HIRISE_NOC_MESH_HH
