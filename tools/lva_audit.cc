/**
 * @file
 * lva-audit driver: builds one project model of the whole repository
 * (tools/analyze) and runs the cross-file analyses — include
 * layering, stat/knob/fault-site registries, lock-order graph, the
 * bench-driver and hot-path doc tables — that
 * the per-file lva_lint pass cannot see.  Findings print gcc-style;
 * exit status: 0 clean, 1 findings, 2 usage/IO error.
 *
 * Usage:
 *   lva_audit [--root DIR] [--compdb FILE] [--baseline FILE]
 *             [--exclude PREFIX]... [--rules]
 *
 *   The model is built from src/ tools/ bench/ tests/ (C++ sources)
 *   plus scripts/ .github/ docs/ README.md DESIGN.md
 *   bench/CMakeLists.txt (reference scans) under --root.  --compdb additionally merges the file list
 *   of a compilation database (CI parity with lva_lint).  --baseline
 *   defaults to tools/analyze/audit_baseline.txt under the root when
 *   present; stale entries are findings, so the baseline only ever
 *   shrinks.  Suppress intentional hits in source with
 *   // lva-audit: allow(<rule>) or begin-allow/end-allow fences.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/audit.hh"
#include "analyze/loader.hh"

namespace fs = std::filesystem;

namespace {

struct Args
{
    std::string root = ".";
    std::string compdb;
    std::string baseline;
    std::vector<std::string> excludes;
    bool rules = false;
};

std::string
readFile(const fs::path &p, bool &ok)
{
    std::ifstream in(p, std::ios::binary);
    ok = static_cast<bool>(in);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Pull the "file" entries out of a compile_commands.json. */
std::vector<std::string>
compdbFiles(const std::string &dbPath, bool &ok)
{
    std::string text = readFile(dbPath, ok);
    std::vector<std::string> files;
    if (!ok)
        return files;
    static const std::regex entry(
        R"re("file"\s*:\s*"((?:[^"\\]|\\.)*)")re");
    for (auto it = std::sregex_iterator(text.begin(), text.end(),
                                        entry);
         it != std::sregex_iterator(); ++it) {
        std::string f = (*it)[1].str();
        std::string clean;
        for (std::size_t i = 0; i < f.size(); ++i) {
            if (f[i] == '\\' && i + 1 < f.size())
                ++i;
            clean += f[i];
        }
        files.push_back(clean);
    }
    return files;
}

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--root DIR] [--compdb FILE] [--baseline FILE]"
                 " [--exclude PREFIX]... [--rules]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "lva_audit: " << flag
                          << " needs a value\n";
                return nullptr;
            }
            return argv[++i];
        };
        if (a == "--rules") {
            args.rules = true;
        } else if (a == "--root") {
            const char *v = value("--root");
            if (!v)
                return 2;
            args.root = v;
        } else if (a == "--compdb") {
            const char *v = value("--compdb");
            if (!v)
                return 2;
            args.compdb = v;
        } else if (a == "--baseline") {
            const char *v = value("--baseline");
            if (!v)
                return 2;
            args.baseline = v;
        } else if (a == "--exclude") {
            const char *v = value("--exclude");
            if (!v)
                return 2;
            args.excludes.push_back(v);
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::cerr << "lva_audit: unknown argument " << a << "\n";
            return usage(argv[0]);
        }
    }

    if (args.rules) {
        std::cout << "lva-audit rules (suppress with"
                     " // lva-audit: allow(<rule>)):\n";
        for (const auto &r : lva::audit::auditRuleCatalog()) {
            std::cout << "  " << r.id << "\n    scope: " << r.scope
                      << "\n    " << r.summary << "\n";
        }
        return 0;
    }

    lva::audit::LoadOptions opts;
    for (const std::string &e : args.excludes)
        opts.excludes.push_back(e);
    if (!args.compdb.empty()) {
        bool ok = false;
        opts.extraSources = compdbFiles(args.compdb, ok);
        if (!ok) {
            std::cerr << "lva_audit: cannot read " << args.compdb
                      << "\n";
            return 2;
        }
    }

    lva::audit::LoadResult loaded =
        lva::audit::loadProject(args.root, opts);
    for (const std::string &e : loaded.errors)
        std::cerr << "lva_audit: cannot read " << e << "\n";
    if (!loaded.errors.empty())
        return 2;
    if (loaded.project.sources.empty()) {
        std::cerr << "lva_audit: no sources under " << args.root
                  << "\n";
        return 2;
    }

    // Baseline: explicit flag, else the committed default when present.
    lva::audit::Baseline baseline;
    bool haveBaseline = false;
    std::string baselinePath = args.baseline;
    if (baselinePath.empty()) {
        const fs::path def = fs::path(args.root) /
                             "tools/analyze/audit_baseline.txt";
        std::error_code ec;
        if (fs::is_regular_file(def, ec))
            baselinePath = def.string();
    }
    if (!baselinePath.empty()) {
        bool ok = false;
        const std::string content = readFile(baselinePath, ok);
        if (!ok) {
            std::cerr << "lva_audit: cannot read " << baselinePath
                      << "\n";
            return 2;
        }
        baseline = lva::audit::parseBaseline(
            "tools/analyze/audit_baseline.txt", content);
        haveBaseline = true;
    }

    const std::vector<lva::lint::Finding> findings =
        lva::audit::runAudit(loaded.project,
                             haveBaseline ? &baseline : nullptr);
    for (const auto &f : findings)
        std::cout << f.file << ":" << f.line << ": [" << f.rule
                  << "] " << f.message << "\n";

    const std::size_t files = loaded.project.sources.size() +
                              loaded.project.texts.size();
    if (findings.empty()) {
        std::cout << "lva-audit: " << files << " files clean\n";
        return 0;
    }
    std::cout << "lva-audit: " << findings.size()
              << " finding(s) across " << files
              << " files (suppress intentional hits with"
                 " // lva-audit: allow(<rule>))\n";
    return 1;
}
