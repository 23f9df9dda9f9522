/**
 * @file
 * Declarative experiment-spec format for the campaign service: a JSON
 * document (JSON is a strict subset of YAML 1.2, so specs are valid
 * YAML artifacts) describing one campaign — a switch configuration, a
 * simulation config, a traffic pattern, and the (load, seed) grid to
 * evaluate — plus file includes and dotted-path key overrides, so
 * campaigns are reproducible artifacts instead of CLI flag soup.
 *
 *   {
 *     "include": "base.json",          // optional; file or [files]
 *     "name": "fig11b-quick",
 *     "switch": {"topology": "hirise", "radix": 64, "layers": 4,
 *                "channels": 4, "arb": "clrg"},
 *     "sim": {"warmup_cycles": 2000, "measure_cycles": 8000,
 *             "seed": 1},
 *     "pattern": {"kind": "uniform-random"},
 *     "loads": {"from": 0.05, "to": 0.60, "step": 0.05},
 *     "seeds": [1, 2, 3],              // optional; default [sim.seed]
 *     "checkpoint_cycles": 0           // optional; see docs/SERVICE.md
 *   }
 *
 * Includes are resolved relative to the including file, parent-first
 * deep merge (the includer's keys win), with cycle detection. The
 * point grid is seeds-major: for each seed, every load in order; row
 * index i is the stable identity of a point within the campaign.
 *
 * Parsing is total: every malformed document yields (false, error
 * message), never fatal()/abort, because the daemon parses specs off
 * the wire (tests/svc_test.cc fuzzes this). The validation rules
 * mirror SwitchSpec::validate() exactly so a parsed spec never trips
 * the fatal path downstream.
 */

#ifndef HIRISE_SVC_CAMPAIGN_SPEC_HH
#define HIRISE_SVC_CAMPAIGN_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/spec.hh"
#include "sim/sweep.hh"
#include "svc/json.hh"

namespace hirise::svc {

/** Traffic-pattern declaration (svc mirror of traffic/pattern.hh
 *  constructors; patternFactory() instantiates). */
struct PatternDecl
{
    std::string kind = "uniform-random";
    std::uint32_t hot = 0;              //!< hotspot
    double meanBurst = 8.0;             //!< bursty
    std::uint32_t srcLayer = 0;         //!< inter-layer-only
    std::uint32_t dstLayer = 1;         //!< inter-layer-only
    std::vector<std::uint32_t> sources; //!< adversarial
    std::uint32_t dst = 0;              //!< adversarial
};

struct CampaignSpec
{
    std::string name = "campaign";
    SwitchSpec sw;
    sim::SimConfig cfg; //!< injectionRate/seed overwritten per point
    PatternDecl pattern;
    std::vector<double> loads;
    std::vector<std::uint64_t> seeds; //!< outer grid axis
    /** When > 0 (and the job has a snapshot dir), points run through
     *  the checkpointed scalar path: a PR-9 snapshot keyed per point
     *  is written every this-many cycles, so a killed daemon resumes
     *  mid-point with bit-identical output. 0 = runPointsCached, no
     *  checkpoints. */
    std::uint64_t checkpointCycles = 0;

    /** Factory building a fresh pattern instance per run. */
    sim::PatternFactory patternFactory() const;

    /** The seeds-major (load, seed) grid; row i of the streamed
     *  results is points()[i]. */
    std::vector<sim::RunPoint> points() const;

    /** Canonical JSON form: every field, fixed order, defaults made
     *  explicit. parse(toJson()) round-trips to an equal spec, and
     *  hash() is FNV-1a over this serialization. */
    Json toJson() const;
    std::uint64_t hash() const;
};

/** Parse a campaign document. Never fatal()s; false + *err on any
 *  malformed, inconsistent, or out-of-range field. */
bool parseCampaignSpec(const Json &doc, CampaignSpec *out,
                       std::string *err);

/**
 * Load @p path, resolve "include" chains (relative to each including
 * file, parent-first deep merge, cycle/depth guarded), and return the
 * merged document with every "include" key consumed. The result still
 * needs parseCampaignSpec().
 */
bool loadSpecFile(const std::string &path, Json *out, std::string *err);

/**
 * Apply one dotted-path override "a.b.c=value" to @p doc (creating
 * intermediate objects). The value text is parsed as JSON when it is
 * one, else taken as a bare string — so `sim.seed=5`, `loads=[0.1]`,
 * and `pattern.kind=hotspot` all work unquoted.
 */
bool applySpecOverride(Json *doc, std::string_view assignment,
                       std::string *err);

/** Deep merge: object members of @p overlay are merged into @p base
 *  recursively; every other overlay value replaces the base value. */
void jsonMerge(Json *base, const Json &overlay);

} // namespace hirise::svc

#endif // HIRISE_SVC_CAMPAIGN_SPEC_HH
