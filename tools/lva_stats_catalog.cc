/**
 * @file
 * lva_stats_catalog — registry self-dump for the metric catalog.
 *
 * Instantiates every registry-backed component (ApproxMemory in all
 * four modes, the full-system simulator with and without LVA and the
 * heterogeneous NoC) plus the derived-metric catalogs, and prints one
 * line per distinct stat path:
 *
 *   <path>\t<type>\t<unit>\t<description>
 *
 * Per-instance indices are normalized to placeholders (thread0 ->
 * thread<N>, core2 -> core<N>, l2.bank1 -> l2.bank<N>) so the dump is
 * independent of the configured core/thread/bank counts.
 *
 * scripts/check_docs.sh diffs this output against docs/metrics.md in
 * both directions: every documented path must exist in a registry and
 * every registered path must be documented.
 *
 * --machine-schema switches to a second catalog: one line per
 * lva-machine-v1 configuration key (src/sim/machine_config.cc), which
 * the same script diffs against the key table in docs/topology.md.
 */

#include <algorithm>
#include <cstdio>
#include <regex>
#include <string>
#include <vector>

#include <cstring>

#include "core/approx_memory.hh"
#include "eval/evaluator.hh"
#include "eval/service.hh"
#include "eval/sweep.hh"
#include "sim/full_system.hh"
#include "sim/machine_config.hh"
#include "util/stat_registry.hh"

using namespace lva;

namespace {

struct CatalogRow
{
    std::string path;
    std::string type;
    std::string unit;
    std::string desc;

    bool operator<(const CatalogRow &o) const { return path < o.path; }
    bool operator==(const CatalogRow &o) const { return path == o.path; }
};

std::string
normalize(const std::string &path)
{
    static const std::regex idx("\\b(thread|core|bank)[0-9]+\\b");
    return std::regex_replace(path, idx, "$1<N>");
}

void
appendSnapshot(std::vector<CatalogRow> &rows, const StatSnapshot &snap)
{
    for (const SnapEntry &e : snap.entries)
        rows.push_back({normalize(e.path), statTypeName(e.type),
                        e.unit, e.desc});
}

void
appendDefs(std::vector<CatalogRow> &rows,
           const std::vector<EvalMetricDef> &defs)
{
    for (const EvalMetricDef &d : defs)
        rows.push_back({d.path, statTypeName(StatType::Gauge), d.unit,
                        d.desc});
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--machine-schema") == 0) {
        // The machine-schema catalog: one dotted key per line, in the
        // parser's own order. docs/topology.md must list exactly this
        // set (gated two-way by scripts/check_docs.sh).
        for (const std::string &key : machineSchemaKeys())
            std::printf("%s\n", key.c_str());
        return 0;
    }
    if (argc != 1) {
        std::fprintf(stderr, "usage: %s [--machine-schema]\n", argv[0]);
        return 2;
    }

    std::vector<CatalogRow> rows;

    // Phase-1 memory model: each mode registers a different component
    // set ("thread<N>.{l1,mem,lva,lvp,prefetch}.*").
    for (const MemMode mode :
         {MemMode::Lva, MemMode::Lvp, MemMode::Prefetch,
          MemMode::Precise}) {
        ApproxMemory::Config cfg;
        cfg.threads = 1;
        cfg.mode = mode;
        const ApproxMemory mem(cfg);
        appendSnapshot(rows, mem.snapshot());
    }

    // Phase-2 timing model: "core<N>.*", "l2.*", "energy.*",
    // "system.*". The baseline and the LVA/hetero-NoC configurations
    // register the same schema today, but take the union anyway so a
    // config-gated stat added later still shows up.
    {
        const FullSystemSim base(FullSystemConfig::baseline());
        appendSnapshot(rows, base.registry().snapshot());

        FullSystemConfig lva_cfg = FullSystemConfig::lva(4);
        lva_cfg.heteroNoc = true;
        const FullSystemSim lva_sim(lva_cfg);
        appendSnapshot(rows, lva_sim.registry().snapshot());
    }

    // The evaluation daemon's process-wide serving subtree
    // ("serve.*", exported by the lva-rpc-v1 `stats` op).
    appendSnapshot(rows, ServeStats().snapshot());

    // Derived gauges folded into exported snapshots by the evaluator
    // ("eval.*"), the static-workload census ("workload.*") and the
    // checked sweep runtime ("eval.retries.*", "eval.failures.*").
    appendDefs(rows, evalMetricDefs());
    appendDefs(rows, workloadStaticDefs());
    appendDefs(rows, sweepRuntimeDefs());

    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());

    for (const CatalogRow &r : rows)
        std::printf("%s\t%s\t%s\t%s\n", r.path.c_str(),
                    r.type.c_str(), r.unit.c_str(), r.desc.c_str());
    return 0;
}
