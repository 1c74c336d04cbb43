#include "analyze/loader.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

namespace fs = std::filesystem;

namespace lva::audit {
namespace {

bool
isCppSource(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".h" || ext == ".hpp" || ext == ".cxx";
}

bool
isTextInput(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".sh" || ext == ".py" || ext == ".yml" ||
           ext == ".yaml" || ext == ".md" || ext == ".cmake" ||
           ext == ".txt";
}

std::string
readFile(const fs::path &p, bool &ok)
{
    std::ifstream in(p, std::ios::binary);
    ok = static_cast<bool>(in);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
relativize(const fs::path &file, const fs::path &root)
{
    std::error_code ec;
    fs::path rel = fs::relative(file, root, ec);
    if (ec || rel.empty() || *rel.begin() == "..")
        rel = file;
    return rel.generic_string();
}

} // namespace

LoadResult
loadProject(const std::string &rootStr, const LoadOptions &opts)
{
    LoadResult out;
    const fs::path root = fs::absolute(rootStr);

    auto excluded = [&](const std::string &rel) {
        return std::any_of(opts.excludes.begin(), opts.excludes.end(),
                           [&](const std::string &e) {
                               return rel.compare(0, e.size(), e) == 0;
                           });
    };

    // Collect (rel, abs) pairs first so parse order — and therefore
    // every downstream report — is deterministic.
    std::map<std::string, std::string> sources, texts; // rel -> abs
    auto collect = [&](const std::vector<std::string> &roots,
                       bool cpp) {
        for (const std::string &r : roots) {
            const fs::path abs = root / r;
            std::error_code ec;
            if (fs::is_directory(abs, ec)) {
                for (fs::recursive_directory_iterator it(abs, ec),
                     end;
                     !ec && it != end; it.increment(ec)) {
                    if (!it->is_regular_file())
                        continue;
                    const bool want = cpp ? isCppSource(it->path())
                                          : isTextInput(it->path());
                    if (!want)
                        continue;
                    const std::string rel =
                        relativize(it->path(), root);
                    if (!excluded(rel))
                        (cpp ? sources : texts)
                            .emplace(rel, it->path().string());
                }
            } else if (fs::is_regular_file(abs, ec)) {
                const std::string rel = relativize(abs, root);
                if (!excluded(rel))
                    (cpp ? sources : texts)
                        .emplace(rel, abs.string());
            }
            // Missing roots are fine: fixture trees are sparse.
        }
    };
    collect(opts.sourceRoots, /*cpp=*/true);
    collect(opts.textRoots, /*cpp=*/false);

    for (const auto &[rel, abs] : sources) {
        bool ok = false;
        const std::string content = readFile(abs, ok);
        if (!ok) {
            out.errors.push_back(rel);
            continue;
        }
        out.project.sources.push_back(parseSource(rel, content));
    }
    for (const auto &[rel, abs] : texts) {
        bool ok = false;
        const std::string content = readFile(abs, ok);
        if (!ok) {
            out.errors.push_back(rel);
            continue;
        }
        out.project.texts.push_back(parseText(rel, content));
    }
    finalizeModel(out.project);
    return out;
}

} // namespace lva::audit
