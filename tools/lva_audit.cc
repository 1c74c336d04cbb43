/**
 * @file
 * lva-audit driver: builds one project model of the whole repository
 * (tools/analyze) and runs both rule sets over it — the line-local
 * determinism/safety rules of tools/lint (DESIGN.md §12) on every C++
 * source, and the cross-file analyses (DESIGN.md §17): include
 * layering, stat/knob/fault-site registries, lock-order graph, the
 * bench-driver and hot-path doc tables.  Findings print gcc-style;
 * exit status: 0 clean, 1 findings, 2 usage/IO error.
 *
 * Usage:
 *   lva_audit [--root DIR] [--exclude PREFIX]... [--rules]
 *
 *   The model is built from src/ tools/ bench/ tests/ examples/ (C++
 *   sources) plus scripts/ .github/ docs/ README.md DESIGN.md
 *   bench/CMakeLists.txt (reference scans) under --root, minus
 *   tests/lint_fixtures/, tests/audit_fixtures/ and every --exclude
 *   prefix.  --rules prints both rule catalogs and exits.  Suppress
 *   intentional hits in source with // lva-lint: allow(<rule>) for a
 *   line-local rule and // lva-audit: allow(<rule>) for a project
 *   rule, or with begin-allow/end-allow fences under either tag.
 */

#include <iostream>
#include <string>
#include <vector>

#include "analyze/audit.hh"
#include "analyze/loader.hh"

namespace {

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--root DIR] [--exclude PREFIX]... [--rules]\n";
    return 2;
}

void
printCatalog(const char *tag, const std::vector<lva::lint::RuleInfo> &rules)
{
    std::cout << tag << " rules (suppress with // " << tag
              << ": allow(<rule>)):\n";
    for (const auto &r : rules)
        std::cout << "  " << r.id << "\n    scope: " << r.scope << "\n    "
                  << r.summary << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    lva::audit::LoadOptions opts;
    bool rules = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--rules") {
            rules = true;
        } else if (a == "--root" || a == "--exclude") {
            if (i + 1 >= argc) {
                std::cerr << "lva_audit: " << a << " needs a value\n";
                return usage(argv[0]);
            }
            if (a == "--root")
                root = argv[++i];
            else
                opts.excludes.push_back(argv[++i]);
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::cerr << "lva_audit: unknown argument " << a << "\n";
            return usage(argv[0]);
        }
    }

    if (rules) {
        printCatalog("lva-lint", lva::lint::ruleCatalog());
        printCatalog("lva-audit", lva::audit::auditRuleCatalog());
        return 0;
    }

    lva::audit::LoadResult loaded = lva::audit::loadProject(root, opts);
    for (const std::string &e : loaded.errors)
        std::cerr << "lva_audit: cannot read " << e << "\n";
    if (!loaded.errors.empty())
        return 2;
    if (loaded.project.sources.empty()) {
        std::cerr << "lva_audit: no sources under " << root << "\n";
        return 2;
    }

    const std::vector<lva::lint::Finding> findings =
        lva::audit::runAudit(loaded.project);
    for (const auto &f : findings)
        std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message << "\n";

    const std::size_t files =
        loaded.project.sources.size() + loaded.project.texts.size();
    if (findings.empty()) {
        std::cout << "lva-audit: " << files << " files clean\n";
        return 0;
    }
    std::cout << "lva-audit: " << findings.size() << " finding(s) across "
              << files
              << " files (suppress intentional hits with // lva-lint:"
                 " allow(<rule>) or // lva-audit: allow(<rule>), per"
                 " --rules)\n";
    return 1;
}
