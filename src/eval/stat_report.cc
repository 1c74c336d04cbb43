#include "eval/stat_report.hh"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "eval/sweep.hh"
#include "util/logging.hh"
#include "util/results_dir.hh"
#include "util/stats_json.hh"

namespace lva {

void
appendCacheStats(StatDump &dump, const std::string &prefix,
                 const CacheStats &stats)
{
    dump.add(prefix + ".hits",
             static_cast<double>(stats.hits.value()),
             "accesses that found the block resident");
    dump.add(prefix + ".misses",
             static_cast<double>(stats.misses.value()),
             "accesses that missed");
    dump.add(prefix + ".fetches",
             static_cast<double>(stats.fetches.value()),
             "blocks brought into the cache");
    dump.add(prefix + ".evictions",
             static_cast<double>(stats.evictions.value()),
             "blocks displaced by fills");
    dump.add(prefix + ".writebacks",
             static_cast<double>(stats.writebacks.value()),
             "dirty blocks written back");
}

void
appendApproximatorStats(StatDump &dump, const std::string &prefix,
                        const ApproximatorStats &stats)
{
    dump.add(prefix + ".lookups",
             static_cast<double>(stats.lookups.value()),
             "misses presented to the approximator");
    dump.add(prefix + ".approximations",
             static_cast<double>(stats.approximations.value()),
             "misses answered with X_approx");
    dump.add(prefix + ".fetchesSkipped",
             static_cast<double>(stats.fetchesSkipped.value()),
             "block fetches cancelled by the degree counter");
    dump.add(prefix + ".trainings",
             static_cast<double>(stats.trainings.value()),
             "X_actual arrivals applied");
    dump.add(prefix + ".allocations",
             static_cast<double>(stats.allocations.value()),
             "table entries (re)allocated");
    dump.add(prefix + ".confRejects",
             static_cast<double>(stats.confRejects.value()),
             "misses rejected by the confidence gate");
    dump.add(prefix + ".coldRejects",
             static_cast<double>(stats.coldRejects.value()),
             "misses with no history yet");
    dump.add(prefix + ".staleDrops",
             static_cast<double>(stats.staleDrops.value()),
             "trainings dropped after re-allocation");
}

void
appendMemMetrics(StatDump &dump, const std::string &prefix,
                 const MemMetrics &m)
{
    dump.add(prefix + ".instructions",
             static_cast<double>(m.instructions),
             "dynamic instructions");
    dump.add(prefix + ".loads", static_cast<double>(m.loads),
             "load instructions");
    dump.add(prefix + ".stores", static_cast<double>(m.stores),
             "store instructions");
    dump.add(prefix + ".loadMisses",
             static_cast<double>(m.loadMisses), "raw L1 load misses");
    dump.add(prefix + ".effectiveMisses",
             static_cast<double>(m.effectiveMisses),
             "misses not hidden by approximation");
    dump.add(prefix + ".fetches", static_cast<double>(m.fetches),
             "L1 block fills");
    dump.add(prefix + ".approxLoads",
             static_cast<double>(m.approxLoads),
             "loads returning approximate values");
    dump.add(prefix + ".mpki", m.mpki(),
             "effective misses per kilo-instruction");
    dump.add(prefix + ".coverage", m.coverage(),
             "approximated fraction of approximable loads");
}

StatDump
reportApproxMemory(const ApproxMemory &mem, const std::string &prefix)
{
    // Aggregate metrics first, then the whole registry: every
    // per-thread component stat ("thread<N>.l1.*", "thread<N>.lva.*",
    // "thread<N>.mem.*") flows from the same snapshot that the JSON
    // export serializes.
    StatDump dump;
    appendMemMetrics(dump, prefix, mem.metrics());
    appendSnapshot(dump, prefix, mem.snapshot());
    return dump;
}

StatDump
reportFullSystem(const FullSystemResult &r, const std::string &prefix)
{
    StatDump dump;
    dump.add(prefix + ".cycles", r.cycles, "makespan over all cores");
    dump.add(prefix + ".instructions",
             static_cast<double>(r.instructions),
             "instructions retired");
    dump.add(prefix + ".ipc", r.ipc, "aggregate IPC");
    dump.add(prefix + ".l1Misses", static_cast<double>(r.l1Misses),
             "raw L1 load misses");
    dump.add(prefix + ".demandMisses",
             static_cast<double>(r.demandMisses),
             "misses the cores waited for");
    dump.add(prefix + ".approxMisses",
             static_cast<double>(r.approxMisses),
             "misses hidden by approximation");
    dump.add(prefix + ".fetchesSkipped",
             static_cast<double>(r.fetchesSkipped),
             "fetches cancelled by the degree counter");
    dump.add(prefix + ".avgL1MissLatency", r.avgL1MissLatency,
             "effective miss latency (cycles)");
    dump.add(prefix + ".l2Accesses",
             static_cast<double>(r.l2Accesses), "L2 bank accesses");
    dump.add(prefix + ".dramAccesses",
             static_cast<double>(r.dramAccesses), "DRAM transfers");
    dump.add(prefix + ".noc.flitHops",
             static_cast<double>(r.flitHops),
             "interconnect flit-hops (all planes)");
    dump.add(prefix + ".noc.flitHopsSlow",
             static_cast<double>(r.events.nocFlitHopsSlow),
             "flit-hops on the heterogeneous plane");
    dump.add(prefix + ".energy.total", r.energy.total(),
             "dynamic energy (nJ)");
    dump.add(prefix + ".energy.l1", r.energy.l1, "L1 energy (nJ)");
    dump.add(prefix + ".energy.l2", r.energy.l2, "L2 energy (nJ)");
    dump.add(prefix + ".energy.dram", r.energy.dram,
             "DRAM energy (nJ)");
    dump.add(prefix + ".energy.noc", r.energy.noc, "NoC energy (nJ)");
    dump.add(prefix + ".energy.approximator", r.energy.approximator,
             "approximator energy (nJ)");
    dump.add(prefix + ".missEdp", r.missEdp(),
             "L1-miss energy-delay product");
    return dump;
}

void
appendSnapshot(StatDump &dump, const std::string &prefix,
               const StatSnapshot &snap)
{
    for (const SnapEntry &e : snap.entries) {
        const std::string path = StatRegistry::joinPath(prefix, e.path);
        switch (e.type) {
          case StatType::Counter:
            dump.add(path, static_cast<double>(e.count), e.desc);
            break;
          case StatType::Gauge:
            dump.add(path, e.gauge, e.desc);
            break;
          case StatType::Histogram:
            dump.add(path + ".total",
                     static_cast<double>(e.histTotal), e.desc);
            dump.add(path + ".underflow",
                     static_cast<double>(e.histUnderflow),
                     "samples below " + jsonDouble(e.histLo));
            dump.add(path + ".overflow",
                     static_cast<double>(e.histOverflow),
                     "samples at or above " + jsonDouble(e.histHi));
            break;
        }
    }
}

std::string
renderStatsJson(const std::string &driver,
                const std::vector<NamedSnapshot> &snaps)
{
    return renderStatsJson(driver, snaps, {});
}

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
               const std::vector<NamedSnapshot> &snaps)
{
    return writeStatsJson(driver, snaps, {});
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
