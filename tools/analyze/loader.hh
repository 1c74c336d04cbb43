/**
 * @file
 * Filesystem loader for the lva_audit project model: walks a repo
 * root into a Project so the lva_audit driver and audit_tool_test
 * (which points it at tests/audit_fixtures/<case>/ mini-trees) build
 * their models the exact same way.
 */

#ifndef LVA_TOOLS_ANALYZE_LOADER_HH
#define LVA_TOOLS_ANALYZE_LOADER_HH

#include <string>
#include <vector>

#include "analyze/project_model.hh"

namespace lva::audit {

struct LoadOptions
{
    /** Directories walked for C++ sources (repo-relative). */
    std::vector<std::string> sourceRoots = {"src", "tools", "bench",
                                            "tests", "examples"};
    /**
     * Directories/files scanned as text (scripts, workflows, docs,
     * and the bench driver declarations).
     */
    std::vector<std::string> textRoots = {
        "scripts",   ".github",   "docs",
        "README.md", "DESIGN.md", "bench/CMakeLists.txt"};
    /** Repo-relative path prefixes to drop. */
    std::vector<std::string> excludes = {"tests/lint_fixtures/",
                                         "tests/audit_fixtures/"};
};

struct LoadResult
{
    Project project;
    std::vector<std::string> errors; ///< unreadable paths
};

/**
 * Walk @p root per @p opts, parse every file, and finalize the model
 * (include resolution + sorting).  Missing roots are skipped
 * silently so fixture mini-trees only provide what they exercise.
 */
LoadResult loadProject(const std::string &root,
                       const LoadOptions &opts = {});

} // namespace lva::audit

#endif // LVA_TOOLS_ANALYZE_LOADER_HH
