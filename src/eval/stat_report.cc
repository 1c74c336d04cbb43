#include "eval/stat_report.hh"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/logging.hh"
#include "util/results_dir.hh"
#include "util/stats_json.hh"

namespace lva {

std::string
renderStatsJson(const std::string &driver,
                const std::vector<NamedSnapshot> &snaps,
                const std::vector<PointFailure> &failures)
{
    std::string out = "{\n";
    out += "  \"schema\": " +
           jsonQuote(statsJsonSchema()) + ",\n";
    out += "  \"driver\": " + jsonQuote(driver) + ",\n";
    out += "  \"points\": [";
    bool first = true;
    for (const NamedSnapshot &s : snaps) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    {\n      \"label\": " + jsonQuote(s.label);
        if (!s.workload.empty())
            out += ",\n      \"workload\": " + jsonQuote(s.workload);
        out += ",\n      \"stats\": " + snapshotToJson(s.stats, 6);
        out += "\n    }";
    }
    out += first ? "]" : "\n  ]";
    if (!failures.empty()) {
        // Additive section: absent on clean sweeps so the historical
        // byte layout (and every determinism test pinning it) holds.
        out += ",\n  \"failures\": [";
        bool ffirst = true;
        for (const PointFailure &f : failures) {
            out += ffirst ? "\n" : ",\n";
            ffirst = false;
            out += "    {\"index\": " + std::to_string(f.index);
            out += ", \"label\": " + jsonQuote(f.label);
            if (!f.workload.empty())
                out += ", \"workload\": " + jsonQuote(f.workload);
            out += ", \"error\": " + jsonQuote(f.error);
            out += ", \"attempts\": " + std::to_string(f.attempts);
            // Always false; kept so the lva-stats-v1 schema holds.
            out += ", \"timedOut\": false}";
        }
        out += ffirst ? "]" : "\n  ]";
    }
    out += "\n}\n";
    return out;
}

void
checkStatsFileSchema(const std::string &path)
{
    std::ifstream in(path);
    if (!in.is_open())
        return; // nothing to clobber
    std::string line;
    while (std::getline(in, line)) {
        const auto key = line.find("\"schema\"");
        if (key == std::string::npos)
            continue;
        const std::string want =
            jsonQuote(statsJsonSchema());
        if (line.find(want, key) == std::string::npos)
            throw std::runtime_error(
                "stats export " + path +
                " carries a different schema version than " +
                statsJsonSchema() +
                "; refusing to truncate it (move it aside first)");
        return;
    }
    // A file without any schema tag is not ours to overwrite.
    throw std::runtime_error(
        "stats export " + path +
        " has no schema tag; refusing to truncate it");
}

std::string
writeStatsJson(const std::string &driver,
               const std::vector<NamedSnapshot> &snaps,
               const std::vector<PointFailure> &failures)
{
    const std::string path =
        resultsPath("stats/" + driver + ".json");
    checkStatsFileSchema(path);
    const std::filesystem::path p(path);
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path());
    std::ofstream out(path, std::ios::trunc);
    if (!out.is_open())
        lva_fatal("cannot open '%s' for writing", path.c_str());
    out << renderStatsJson(driver, snaps, failures);
    return path;
}

} // namespace lva
