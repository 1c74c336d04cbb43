/**
 * @file
 * The doc tables only a running registry can check, diffed both ways
 * against the live code:
 *
 *   docs/metrics.md  catalog         every stat path any registry or
 *                                    derived-metric table exports
 *   docs/serving.md  serve-stats     the serve.* subtree of the same
 *   docs/topology.md machine-schema  machineSchemaKeys()
 *
 * lva_audit checks the catalog statically, but a path fragment such
 * as a joinPath() leaf matches every prefix it could be joined to, so
 * it accepts a stale row like `core<N>.l1.approximations` (a phase-1
 * leaf under a phase-2 prefix).  Only the registries as actually
 * built can reject it.  The tables are read with the audit's own
 * marker-table reader and diffed with its diffTable().
 */

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/audit.hh"
#include "core/approx_memory.hh"
#include "eval/evaluator.hh"
#include "eval/service.hh"
#include "eval/sweep.hh"
#include "sim/full_system.hh"
#include "sim/machine_config.hh"
#include "util/stat_registry.hh"

namespace lva {
namespace {

using audit::DocRow;
using audit::TableDiff;

/**
 * Every stat path an export can carry, per-instance indices
 * normalized (thread0 -> thread<N>, core2 -> core<N>, ...).
 */
std::set<std::string>
registryPaths()
{
    std::set<std::string> paths;
    const auto addSnapshot = [&](const StatSnapshot &snap) {
        for (const SnapEntry &e : snap.entries)
            paths.insert(audit::normalizeIndices(e.path));
    };
    const auto addDefs = [&](const std::vector<EvalMetricDef> &defs) {
        for (const EvalMetricDef &d : defs)
            paths.insert(d.path);
    };

    // Phase-1 memory model: each mode registers a different component
    // set ("thread<N>.{l1,mem,lva,lvp,prefetch}.*").
    for (const MemMode mode : {MemMode::Lva, MemMode::Lvp,
                               MemMode::Prefetch, MemMode::Precise}) {
        ApproxMemory::Config cfg;
        cfg.threads = 1;
        cfg.mode = mode;
        addSnapshot(ApproxMemory(cfg).snapshot());
    }

    // Phase-2 timing model: "core<N>.*", "l2.*", "energy.*",
    // "system.*". The baseline and the LVA/hetero-NoC configurations
    // register the same schema today; the union keeps a config-gated
    // stat added later from slipping through.
    addSnapshot(
        FullSystemSim(FullSystemConfig::baseline()).registry().snapshot());
    FullSystemConfig lvaCfg = FullSystemConfig::lva(4);
    lvaCfg.heteroNoc = true;
    addSnapshot(FullSystemSim(lvaCfg).registry().snapshot());

    // The serving subtree ("serve.*") and the derived gauges folded
    // into exports: "eval.*", "workload.*", "eval.retries.*" and
    // "eval.failures.*".
    addSnapshot(ServeStats().snapshot());
    addDefs(evalMetricDefs());
    addDefs(workloadStaticDefs());
    addDefs(sweepRuntimeDefs());
    return paths;
}

std::set<std::string>
servePaths()
{
    std::set<std::string> serve;
    for (const std::string &p : registryPaths())
        if (p.rfind("serve.", 0) == 0)
            serve.insert(p);
    return serve;
}

std::string
readDoc(const std::string &name)
{
    std::ifstream in(std::string(LVA_DOCS_DIR) + "/" + name, std::ios::binary);
    EXPECT_TRUE(in) << "cannot read docs/" << name;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Both directions, one name per line, for a failure message. */
std::string
describe(const TableDiff &diff, const std::string &doc)
{
    std::string out;
    for (const std::string &n : diff.undocumented)
        out += "  in the code, missing from docs/" + doc + ": " + n + "\n";
    for (const DocRow &r : diff.stale)
        out += "  docs/" + doc + ":" + std::to_string(r.line) +
               " documents what the code does not have: " + r.text + "\n";
    return out;
}

/** One registry-backed doc table and the names it must list. */
struct Gate
{
    const char *doc;
    const char *marker;
    std::set<std::string> (*names)();
    const char *staleName; ///< a plausible name the code lacks
};

std::set<std::string>
schemaKeys()
{
    const std::vector<std::string> &keys = machineSchemaKeys();
    return {keys.begin(), keys.end()};
}

// lva_audit alone accepts the catalog's stale name: ".approximations"
// is a registered leaf, just never under core<N>.l1.
const Gate kGates[] = {
    {"metrics.md", "catalog", registryPaths, "core<N>.l1.approximations"},
    {"serving.md", "serve-stats", servePaths, "serve.cache.bogus"},
    {"topology.md", "machine-schema", schemaKeys, "l2.bogus"},
};

TableDiff
diffDoc(const Gate &gate, const std::string &content)
{
    return audit::diffTable(gate.names(),
                            audit::markerTableRows(content, gate.marker));
}

TEST(DocRegistry, TablesMatchTheLiveCode)
{
    for (const Gate &gate : kGates) {
        const std::string content = readDoc(gate.doc);
        ASSERT_FALSE(audit::markerTableRows(content, gate.marker).empty())
            << "no " << gate.marker << " table in docs/" << gate.doc;
        const TableDiff diff = diffDoc(gate, content);
        EXPECT_TRUE(diff.undocumented.empty() && diff.stale.empty())
            << gate.marker << " table drifted:\n"
            << describe(diff, gate.doc);
    }
}

/** @p content with @p row inserted just before the table's end marker. */
std::string
withRow(const std::string &content, const std::string &marker,
        const std::string &row)
{
    const std::string end = "<!-- " + marker + ":end -->";
    const std::size_t at = content.find(end);
    EXPECT_NE(at, std::string::npos);
    return content.substr(0, at) + row + "\n\n" + content.substr(at);
}

/** @p content without 1-based line @p line. */
std::string
withoutLine(const std::string &content, int line)
{
    std::size_t begin = 0;
    for (int l = 1; l < line; ++l)
        begin = content.find('\n', begin) + 1;
    return content.substr(0, begin) +
           content.substr(content.find('\n', begin) + 1);
}

TEST(DocRegistry, StaleRowFails)
{
    for (const Gate &gate : kGates) {
        const std::string row =
            "| `" + std::string(gate.staleName) + "` | x |";
        const TableDiff diff =
            diffDoc(gate, withRow(readDoc(gate.doc), gate.marker, row));
        ASSERT_EQ(diff.stale.size(), 1u) << describe(diff, gate.doc);
        EXPECT_EQ(diff.stale[0].text, gate.staleName);
        EXPECT_TRUE(diff.undocumented.empty());
    }
}

TEST(DocRegistry, DroppedRowFails)
{
    // Drop each table's first row: the name it documented is now in
    // the code only.
    for (const Gate &gate : kGates) {
        const std::string content = readDoc(gate.doc);
        const std::vector<DocRow> rows =
            audit::markerTableRows(content, gate.marker);
        ASSERT_FALSE(rows.empty());
        const TableDiff diff =
            diffDoc(gate, withoutLine(content, rows[0].line));
        EXPECT_EQ(diff.undocumented, std::vector<std::string>{rows[0].text})
            << describe(diff, gate.doc);
        EXPECT_TRUE(diff.stale.empty());
    }
}

} // namespace
} // namespace lva
