#include "analyze/audit.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <tuple>

namespace lva::audit {
namespace {

/**
 * Collector that resolves suppressions at emit time, so individual
 * rule passes stay simple.
 */
struct Sink
{
    const Project &project;
    std::vector<lint::Finding> out;

    const SourceFile *
    sourceOf(const std::string &path) const
    {
        for (const SourceFile &f : project.sources)
            if (f.path == path)
                return &f;
        return nullptr;
    }

    void
    emit(const std::string &file, int line, const char *rule,
         std::string message)
    {
        if (const SourceFile *src = sourceOf(file))
            if (src->suppressions.allows(line, rule))
                return;
        out.push_back({file, line, rule, std::move(message)});
    }
};

/** Call @p fn(text, line) for every line of @p content (1-based). */
template <typename Fn>
void
forEachLine(const std::string &content, Fn &&fn)
{
    std::size_t pos = 0;
    int line = 1;
    while (pos <= content.size()) {
        std::size_t eol = content.find('\n', pos);
        if (eol == std::string::npos)
            eol = content.size();
        fn(content.substr(pos, eol - pos), line);
        if (eol == content.size())
            break;
        pos = eol + 1;
        ++line;
    }
}

// ---------------------------------------------------------------------
// Doc tables: marker-delimited tables diffed two-way against names the
// code defines (knobs, bench drivers, hot-path fenced files).
// ---------------------------------------------------------------------

/**
 * Rows of the @p marker table in the first text file whose path ends
 * in @p pathSuffix; @p docPath is left empty when there is no such
 * file.
 */
std::vector<DocRow>
tableRows(const Project &project, const std::string &pathSuffix,
          const std::string &marker, std::string *docPath)
{
    for (const TextFile &t : project.texts) {
        if (t.path.size() >= pathSuffix.size() &&
            t.path.compare(t.path.size() - pathSuffix.size(),
                           pathSuffix.size(), pathSuffix) == 0) {
            *docPath = t.path;
            return markerTableRows(t.content, marker);
        }
    }
    return {};
}

/** A name the code defines, at the place that defines it. */
struct CodeName
{
    std::string name;
    std::string file;
    int line = 0;
};

/** One doc table, its two rule ids and the words of their messages. */
struct DocTableRule
{
    const char *docSuffix;    ///< e.g. "README.md"
    const char *marker;       ///< e.g. "knobs"
    const char *undocumented; ///< reported at each use of the name
    const char *stale;        ///< reported at the row
    const char *what;         ///< e.g. "environment knob"
    const char *codeSide;     ///< why a stale row is stale
};

/**
 * The two-way diff behind every doc-table rule.  Skipped when the doc
 * is absent (fixture trees are sparse); a doc without the table makes
 * every name undocumented.
 */
void
auditDocTable(const Project &project, Sink &sink, const DocTableRule &rule,
              const std::vector<CodeName> &code)
{
    std::string docPath;
    const std::vector<DocRow> rows =
        tableRows(project, rule.docSuffix, rule.marker, &docPath);
    if (docPath.empty())
        return;
    std::set<std::string> names;
    for (const CodeName &c : code)
        names.insert(c.name);
    const TableDiff diff = diffTable(names, rows);
    const std::set<std::string> missing(diff.undocumented.begin(),
                                        diff.undocumented.end());
    for (const CodeName &c : code) {
        if (missing.count(c.name))
            sink.emit(c.file, c.line, rule.undocumented,
                      std::string(rule.what) + " " + c.name +
                          " has no row in the " + rule.marker +
                          " table of " + docPath);
    }
    for (const DocRow &r : diff.stale)
        sink.emit(docPath, r.line, rule.stale,
                  docPath + " documents " + rule.what + " " + r.text +
                      " but " + rule.codeSide + "; stale documentation");
}

/** src/, tools/ and bench/: where knobs and hot paths are inventoried. */
bool
codeScope(const std::string &path)
{
    return path.rfind("src/", 0) == 0 ||
           path.rfind("tools/", 0) == 0 ||
           path.rfind("bench/", 0) == 0;
}

// ---------------------------------------------------------------------
// 1. Include layering.
// ---------------------------------------------------------------------

void
auditLayering(const Project &project, Sink &sink)
{
    static const char *layerName[] = {"src/util", "sim core",
                                      "src/eval", "tools/bench/tests"};
    // Back-edges: an include pointing at a strictly higher layer.
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < project.sources.size(); ++i)
        index[project.sources[i].path] = i;

    for (const SourceFile &f : project.sources) {
        if (f.layer < 0)
            continue;
        for (const Include &inc : f.includes) {
            if (inc.resolved.empty())
                continue;
            const int to = layerOf(inc.resolved);
            if (to > f.layer) {
                sink.emit(
                    f.path, inc.line, kLayerBackEdge,
                    std::string("layering back-edge: ") +
                        layerName[f.layer] + " (layer " +
                        std::to_string(f.layer) + ") includes '" +
                        inc.resolved + "' from " + layerName[to] +
                        " (layer " + std::to_string(to) +
                        "); includes may only point sideways or "
                        "toward src/util");
            }
        }
    }

    // Include cycles at file granularity (iterative DFS over the
    // resolved include graph; guards make cycles compile, so only
    // this audit sees them).
    const std::size_t n = project.sources.size();
    std::vector<int> state(n, 0); // 0 new, 1 on stack, 2 done
    std::vector<std::size_t> path;
    std::set<std::string> reported;
    for (std::size_t root = 0; root < n; ++root) {
        if (state[root])
            continue;
        // (node, next-edge) explicit DFS to avoid deep recursion.
        std::vector<std::pair<std::size_t, std::size_t>> work;
        work.push_back({root, 0});
        state[root] = 1;
        path.push_back(root);
        while (!work.empty()) {
            auto &[node, edge] = work.back();
            const SourceFile &f = project.sources[node];
            if (edge >= f.includes.size()) {
                state[node] = 2;
                path.pop_back();
                work.pop_back();
                continue;
            }
            const Include &inc = f.includes[edge++];
            if (inc.resolved.empty())
                continue;
            const auto it = index.find(inc.resolved);
            if (it == index.end())
                continue;
            const std::size_t to = it->second;
            if (state[to] == 1) {
                // Found a cycle: path from `to` to `node`.
                std::vector<std::string> members;
                bool in = false;
                for (std::size_t p : path) {
                    if (p == to)
                        in = true;
                    if (in)
                        members.push_back(project.sources[p].path);
                }
                std::string key;
                std::vector<std::string> sorted = members;
                std::sort(sorted.begin(), sorted.end());
                for (const std::string &m : sorted)
                    key += (key.empty() ? "" : "|") + m;
                if (reported.insert(key).second) {
                    std::string chain;
                    for (const std::string &m : members)
                        chain += (chain.empty() ? "" : " -> ") + m;
                    chain += " -> " + inc.resolved;
                    sink.emit(f.path, inc.line, kLayerCycle,
                              "include cycle: " + chain);
                }
            } else if (state[to] == 0) {
                state[to] = 1;
                path.push_back(to);
                work.push_back({to, 0});
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. Stat-path conformance.
// ---------------------------------------------------------------------

bool
statMatches(const std::string &row, const StatLiteral &lit)
{
    if (!lit.fragment)
        return row == normalizeIndices(lit.text);
    if (lit.text.empty())
        return false;
    if (lit.text[0] == '.') // "+ \".leaf\"" concatenation
        return row.size() > lit.text.size() &&
               row.compare(row.size() - lit.text.size(),
                           lit.text.size(), lit.text) == 0;
    // joinPath leaf: match a whole trailing segment (or the row).
    if (row == lit.text)
        return true;
    const std::string dotted = "." + lit.text;
    return row.size() > dotted.size() &&
           row.compare(row.size() - dotted.size(), dotted.size(),
                       dotted) == 0;
}

void
auditStats(const Project &project, Sink &sink)
{
    std::string docPath;
    const std::vector<DocRow> rows =
        tableRows(project, "docs/metrics.md", "catalog", &docPath);
    if (rows.empty())
        return; // no catalog to audit against (e.g. bare fixture)

    std::vector<bool> rowUsed(rows.size(), false);
    for (const SourceFile &f : project.sources) {
        if (f.path.rfind("src/", 0) != 0)
            continue;
        for (const StatLiteral &lit : f.stats) {
            bool matched = false;
            for (std::size_t i = 0; i < rows.size(); ++i) {
                if (statMatches(rows[i].text, lit)) {
                    rowUsed[i] = true;
                    matched = true;
                }
            }
            if (!matched) {
                sink.emit(f.path, lit.line, kStatUndocumented,
                          "stat path " +
                              std::string(lit.fragment ? "fragment '"
                                                       : "'") +
                              lit.text +
                              "' matches no row of the metric "
                              "catalog in " +
                              docPath + "; document it");
            }
        }
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!rowUsed[i])
            sink.emit(docPath, rows[i].line, kStatStaleDoc,
                      "catalog row '" + rows[i].text +
                          "' is backed by no stat registration "
                          "literal in src/; stale documentation");
    }
}

// ---------------------------------------------------------------------
// 3. Fault-site registry.
// ---------------------------------------------------------------------

bool
faultMatches(const FaultDef &def, const FaultRef &ref)
{
    if (!def.prefix && !ref.prefix)
        return def.site == ref.site;
    if (def.prefix && !ref.prefix)
        return ref.site.rfind(def.site, 0) == 0;
    if (!def.prefix && ref.prefix)
        return def.site.rfind(ref.site, 0) == 0;
    return def.site.rfind(ref.site, 0) == 0 ||
           ref.site.rfind(def.site, 0) == 0;
}

void
auditFaults(const Project &project, Sink &sink)
{
    struct DefAt
    {
        const SourceFile *file;
        const FaultDef *def;
        bool used = false;
    };
    struct RefAt
    {
        std::string path;
        const FaultRef *ref;
        bool known = false;
    };
    std::vector<DefAt> defs;
    std::vector<RefAt> refs;
    for (const SourceFile &f : project.sources) {
        // Tests define throwaway sites (faultPoint("p")) to exercise
        // the injection machinery itself; only production definitions
        // need an external consumer.
        if (f.path.rfind("tests/", 0) != 0)
            for (const FaultDef &d : f.faultDefs)
                defs.push_back({&f, &d});
        for (const FaultRef &r : f.faultRefs)
            refs.push_back({f.path, &r});
    }
    for (const TextFile &t : project.texts)
        for (const FaultRef &r : t.faultRefs)
            refs.push_back({t.path, &r});

    for (RefAt &r : refs)
        for (DefAt &d : defs)
            if (faultMatches(*d.def, *r.ref)) {
                r.known = true;
                d.used = true;
            }

    for (const RefAt &r : refs) {
        if (r.known)
            continue;
        const std::string spec =
            r.ref->site + (r.ref->prefix ? "*" : "");
        sink.emit(r.path, r.ref->line, kFaultUnknownSite,
                  "fault spec arms site '" + spec +
                      "' but no faultPoint() defines it; the "
                      "injection would silently never fire");
    }
    for (const DefAt &d : defs) {
        if (d.used)
            continue;
        sink.emit(d.file->path, d.def->line, kFaultOrphanSite,
                  "fault site '" + d.def->site +
                      (d.def->prefix ? "...'" : "'") +
                      " is defined here but no test, script or doc "
                      "ever arms it; dead injection point");
    }
}

// ---------------------------------------------------------------------
// 4. Knob audit.
// ---------------------------------------------------------------------

void
auditKnobs(const Project &project, Sink &sink)
{
    std::vector<CodeName> knobs;
    for (const SourceFile &f : project.sources) {
        if (!codeScope(f.path))
            continue;
        for (const KnobUse &k : f.knobs) {
            knobs.push_back({k.name, f.path, k.line});
            if (k.directGetenv &&
                f.path != "src/util/env_knob.cc") {
                sink.emit(
                    f.path, k.line, kKnobUnvalidated,
                    "direct getenv(\"" + k.name +
                        "\") bypasses util/env_knob.hh validation; "
                        "use envKnobU64/envKnobF64, or annotate a "
                        "string-valued knob with lva-audit: "
                        "allow(knob-unvalidated)");
            }
        }
    }
    auditDocTable(project, sink,
                  {"README.md", "knobs", kKnobUndocumented, kKnobStaleDoc,
                   "environment knob",
                   "nothing under src/, tools/ or bench/ uses it"},
                  knobs);
}

// ---------------------------------------------------------------------
// 5. Lock-order graph.
// ---------------------------------------------------------------------

void
auditLocks(const Project &project, Sink &sink)
{
    struct Edge
    {
        std::string file;
        int line;
    };
    // (held -> acquired) with the first site that created the edge.
    std::map<std::pair<std::string, std::string>, Edge> edges;
    for (const SourceFile &f : project.sources) {
        for (const LockEdge &e : f.lockEdges)
            edges.emplace(std::make_pair(e.held, e.acquired),
                          Edge{f.path, e.line});
        for (const CvWait &w : f.cvWaits) {
            sink.emit(f.path, w.line, kLockWaitHeld,
                      "condition_variable wait on " + w.waited +
                          " while still holding " + w.held +
                          "; the notifier can deadlock against this "
                          "thread");
        }
    }

    // Cycle detection over the mutex graph (DFS with colors).
    std::map<std::string, std::vector<std::string>> adj;
    for (const auto &[pair, at] : edges)
        adj[pair.first].push_back(pair.second);
    std::map<std::string, int> color;
    std::set<std::string> reported;

    std::vector<std::string> path;
    std::function<void(const std::string &)> dfs =
        [&](const std::string &node) {
            color[node] = 1;
            path.push_back(node);
            for (const std::string &next : adj[node]) {
                if (color[next] == 1) {
                    std::vector<std::string> members;
                    bool in = false;
                    for (const std::string &p : path) {
                        if (p == next)
                            in = true;
                        if (in)
                            members.push_back(p);
                    }
                    std::vector<std::string> sorted = members;
                    std::sort(sorted.begin(), sorted.end());
                    std::string key;
                    for (const std::string &m : sorted)
                        key += (key.empty() ? "" : "|") + m;
                    if (reported.insert(key).second) {
                        std::string chain;
                        for (const std::string &m : members)
                            chain += (chain.empty() ? "" : " -> ") + m;
                        chain += " -> " + next;
                        const Edge &at =
                            edges.at({path.back(), next});
                        sink.emit(at.file, at.line, kLockCycle,
                                  "lock-order cycle: " + chain +
                                      "; two threads taking these "
                                      "in opposite order deadlock");
                    }
                } else if (color[next] == 0) {
                    dfs(next);
                }
            }
            path.pop_back();
            color[node] = 2;
        };
    for (const auto &[node, _] : adj)
        if (color[node] == 0)
            dfs(node);
}

// ---------------------------------------------------------------------
// 6. Bench drivers and hot-path fences vs their doc tables.
// ---------------------------------------------------------------------

void
auditDrivers(const Project &project, Sink &sink)
{
    // The figure drivers are links to one executable, so the names
    // bench/CMakeLists.txt declares, not the bench/*.cc basenames,
    // are the driver list.
    static const std::regex decl(R"(^\s*lva_(?:bench|figure)\((\w+)\))");
    std::vector<CodeName> drivers;
    for (const TextFile &t : project.texts) {
        if (t.path != "bench/CMakeLists.txt")
            continue;
        forEachLine(t.content, [&](const std::string &text, int line) {
            std::smatch m;
            if (std::regex_search(text, m, decl))
                drivers.push_back({m[1].str(), t.path, line});
        });
    }
    auditDocTable(project, sink,
                  {"docs/reproducing.md", "drivers",
                   kDriverUndocumented, kDriverStaleDoc, "bench driver",
                   "bench/CMakeLists.txt declares no lva_bench or "
                   "lva_figure of that name"},
                  drivers);
}

void
auditHotPaths(const Project &project, Sink &sink)
{
    std::vector<CodeName> fenced;
    for (const SourceFile &f : project.sources)
        if (codeScope(f.path) && f.hotPathLine > 0)
            fenced.push_back({f.path, f.path, f.hotPathLine});
    auditDocTable(project, sink,
                  {"docs/performance.md", "hotpath",
                   kHotPathUndocumented, kHotPathStaleDoc,
                   "hot-path fenced file",
                   "no source under src/, tools/ or bench/ of that "
                   "path opens an lva-hot-path fence"},
                  fenced);
}

// ---------------------------------------------------------------------
// Suppression-fence hygiene from the per-file parse.
// ---------------------------------------------------------------------

void
auditFences(const Project &project, Sink &sink)
{
    for (const SourceFile &f : project.sources)
        for (const lint::Finding &fence :
             f.suppressions.fenceFindings)
            sink.emit(fence.file, fence.line, lint::kBadAllowFence,
                      fence.message);
}

} // namespace

const std::vector<lint::RuleInfo> &
auditRuleCatalog()
{
    static const std::vector<lint::RuleInfo> catalog = {
        {kLayerBackEdge, "src/, tools/, bench/, tests/",
         "include edges may only point sideways or toward lower "
         "layers (util -> sim core -> eval -> tools/bench/tests)"},
        {kLayerCycle, "src/, tools/, bench/, tests/",
         "the quoted-include graph must be acyclic at file "
         "granularity"},
        {kStatUndocumented, "src/",
         "every StatRegistry path literal must match a row of the "
         "docs/metrics.md catalog"},
        {kStatStaleDoc, "docs/metrics.md",
         "every catalog row must be backed by a registration literal "
         "in src/"},
        {kFaultUnknownSite, "everywhere + scripts/docs",
         "every site=kind fault spec must name a site some "
         "faultPoint() call defines"},
        {kFaultOrphanSite, "everywhere",
         "every faultPoint() site must be armed by at least one "
         "test, script or doc"},
        {kKnobUndocumented, "src/, tools/, bench/",
         "every \"LVA_*\" literal must appear in the README knob "
         "table"},
        {kKnobStaleDoc, "README.md",
         "every README knob row must be referenced under src/, "
         "tools/ or bench/"},
        {kKnobUnvalidated, "src/, tools/, bench/",
         "getenv(\"LVA_*\") outside util/env_knob.cc must use the "
         "validated envKnobU64/envKnobF64 parsers or carry an "
         "explicit allow annotation"},
        {kLockCycle, "everywhere",
         "the cross-TU mutex acquisition graph (held -> acquired "
         "edges) must be acyclic"},
        {kLockWaitHeld, "everywhere",
         "no condition_variable wait while holding a second mutex"},
        {kDriverUndocumented, "bench/CMakeLists.txt",
         "every lva_bench/lva_figure driver must have a row in the "
         "docs/reproducing.md drivers table"},
        {kDriverStaleDoc, "docs/reproducing.md",
         "every drivers row must name a driver bench/CMakeLists.txt "
         "declares"},
        {kHotPathUndocumented, "src/, tools/, bench/",
         "every source with a whole-line lva-hot-path begin marker "
         "must have a row in the docs/performance.md hotpath table"},
        {kHotPathStaleDoc, "docs/performance.md",
         "every hotpath row must name a source that opens an "
         "lva-hot-path fence"},
        {lint::kBadAllowFence, "everywhere",
         "unbalanced lva-audit begin-allow/end-allow fences"},
    };
    return catalog;
}

std::vector<DocRow>
markerTableRows(const std::string &content, const std::string &marker)
{
    std::vector<DocRow> rows;
    const std::string begin = "<!-- " + marker + ":begin -->";
    const std::string end = "<!-- " + marker + ":end -->";
    static const std::regex rowRe(R"(^\|\s*`([^`]+)`)");
    bool inTable = false;
    forEachLine(content, [&](const std::string &text, int line) {
        if (text.find(begin) != std::string::npos)
            inTable = true;
        else if (text.find(end) != std::string::npos)
            inTable = false;
        std::smatch m;
        if (inTable && std::regex_search(text, m, rowRe))
            rows.push_back({m[1].str(), line});
    });
    return rows;
}

TableDiff
diffTable(const std::set<std::string> &names, const std::vector<DocRow> &rows)
{
    TableDiff out;
    std::set<std::string> documented;
    for (const DocRow &r : rows) {
        documented.insert(r.text);
        if (!names.count(r.text))
            out.stale.push_back(r);
    }
    for (const std::string &n : names)
        if (!documented.count(n))
            out.undocumented.push_back(n);
    return out;
}

std::string
normalizeIndices(const std::string &path)
{
    static const std::regex re(R"((thread|core|bank|worker)[0-9]+)");
    return std::regex_replace(path, re, "$1<N>");
}

std::vector<lint::Finding>
runAudit(const Project &project)
{
    Sink sink{project, {}};
    auditLayering(project, sink);
    auditStats(project, sink);
    auditFaults(project, sink);
    auditKnobs(project, sink);
    auditLocks(project, sink);
    auditDrivers(project, sink);
    auditHotPaths(project, sink);
    auditFences(project, sink);
    for (const SourceFile &f : project.sources)
        sink.out.insert(sink.out.end(), f.lintFindings.begin(),
                        f.lintFindings.end());

    std::sort(sink.out.begin(), sink.out.end(),
              [](const lint::Finding &a, const lint::Finding &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
    return sink.out;
}

} // namespace lva::audit
