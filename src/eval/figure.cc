#include "eval/figure.hh"

#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "eval/fullsystem_eval.hh"
#include "eval/service.hh"
#include "sim/machine_config.hh"
#include "util/bench_timer.hh"
#include "util/results_dir.hh"
#include "util/table.hh"

namespace lva {
namespace {

const char kMpki[] = "eval.normMpki";
const char kFetches[] = "eval.normFetches";
const char kError[] = "eval.outputError";
const char kCoverage[] = "eval.coverage";
const char kCycles[] = "system.cycles";
const char kEnergy[] = "energy.total";

/** "<prefix><v><suffix>" for each of @p values. */
std::vector<std::string>
names(const std::string &prefix, std::initializer_list<u32> values,
      const std::string &suffix = "")
{
    std::vector<std::string> out;
    for (u32 v : values)
        out.push_back(prefix + std::to_string(v) + suffix);
    return out;
}

/**
 * One axis point per value, labelled "<prefix><v>", with override
 * {<extra>"<key>":<v>} (@p extra: further members, comma-terminated)
 * and, on a full-system axis, LVA at @p degree.
 */
std::vector<FigureAxisPoint>
axis(const std::string &prefix, const std::string &key,
     std::initializer_list<u32> values, const std::string &extra = "",
     u32 degree = 0)
{
    std::vector<FigureAxisPoint> out;
    for (u32 v : values)
        out.push_back({prefix + std::to_string(v),
                       "{" + extra + "\"" + key +
                           "\":" + std::to_string(v) + "}",
                       true, degree});
    return out;
}

template <typename T>
std::vector<T>
join(std::vector<T> a, const std::vector<T> &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

/** Column headers[i] shows @p stat of axis point first + i. */
std::vector<FigureColumn>
series(const std::vector<std::string> &headers, const char *stat,
       CellFormat format, u32 first = 0)
{
    std::vector<FigureColumn> out;
    for (std::size_t i = 0; i < headers.size(); ++i)
        out.push_back({headers[i], static_cast<u32>(first + i), stat,
                       format});
    return out;
}

FigureTable
table(std::string title, std::string csv, std::vector<FigureColumn> columns,
      bool average = false)
{
    FigureTable t;
    t.title = std::move(title);
    t.csv = std::move(csv);
    t.columns = std::move(columns);
    t.average = average;
    return t;
}

/** The usual ablation pair: MPKI and error tables over one axis. */
std::vector<FigureTable>
mpkiAndError(const std::string &name, const std::string &what,
             const std::vector<std::string> &headers, bool average = false)
{
    return {table(what + ": normalized MPKI", name + "_mpki.csv",
                  series(headers, kMpki, CellFormat::Fixed3), average),
            table(what + ": output error", name + "_error.csv",
                  series(headers, kError, CellFormat::Percent1), average)};
}

/** Figure 13: one row per mantissa drop, one column per metric. */
FigureTable
fig13Table()
{
    FigureTable t = table(
        "Figure 13: fluidanimate MPKI vs FP precision loss (GHB 2, "
        "confidence disabled)",
        "fig13_precision.csv",
        {{"normalized MPKI", 0, kMpki, CellFormat::Fixed3},
         {"output error", 0, kError, CellFormat::Percent1},
         {"coverage", 0, kCoverage, CellFormat::Percent1}});
    t.corner = "precision loss (bits)";
    t.rows = names("", {0, 5, 11, 17, 23});
    return t;
}

/** Column @p header: @p stat of point @p a compared with point @p b. */
FigureColumn
compared(std::string header, const char *stat, Compare form, u32 a,
         u32 b, CellFormat format = CellFormat::Percent1)
{
    return {std::move(header), a, stat, format, form, b};
}

/** Column @p header: the speedup of point @p lva over point @p base. */
FigureColumn
speedup(std::string header, u32 base, u32 lva)
{
    return compared(std::move(header), kCycles, Compare::RatioMinusOne,
                    base, lva);
}

constexpr u32 kFsDegrees[] = {0, 2, 4, 8, 16};

/**
 * The Fig. 10/11 axis: the precise baseline, then LVA at each
 * degree. Both drivers replay this same sweep; each records and
 * replays it again (there is no trace cache between drivers).
 */
std::vector<FigureAxisPoint>
degreeAxis()
{
    std::vector<FigureAxisPoint> out = {{"baseline", "{}", false}};
    for (u32 d : kFsDegrees)
        out.push_back({"lva-d" + std::to_string(d), "{}", true, d});
    return out;
}

/**
 * One "approx-<d>" column per LVA point i of degreeAxis(): make(
 * header, i) builds it against the baseline, point 0.
 */
template <typename Make>
std::vector<FigureColumn>
perDegree(Make make)
{
    std::vector<FigureColumn> out;
    for (u32 i = 1; i <= std::size(kFsDegrees); ++i)
        out.push_back(
            make("approx-" + std::to_string(kFsDegrees[i - 1]), i));
    return out;
}

std::vector<FigureSpec>
buildSpecs()
{
    const std::vector<std::string> &all = allWorkloadNames();
    const auto ghb = {0u, 1u, 2u, 4u};
    const auto degrees = {2u, 4u, 8u, 16u};
    const std::vector<std::string> windows = {"0% (ideal LVP)", "5%",
                                              "10%", "20%", "infinite"};
    const std::vector<std::string> fig8Cols =
        join(names("prefetch-", degrees), names("approx-", degrees));

    return {
        {.driver = "fig4_ghb_mpki",
         .heading = "Figure 4 reproduction",
         .workloads = all,
         .axis = join(axis("lvp-ghb-", "ghb", ghb, "\"mode\":\"lvp\","),
                      axis("lva-ghb-", "ghb", ghb)),
         .tables = {table("Figure 4: normalized MPKI, LVA vs idealized "
                          "LVP (lower is better)",
                          "fig4_ghb_mpki.csv",
                          series(join(names("LVP-GHB-", ghb),
                                      names("LVA-GHB-", ghb)),
                                 kMpki, CellFormat::Fixed3),
                          true)}},

        {.driver = "fig5_ghb_error",
         .heading = "Figure 5 reproduction",
         .workloads = all,
         .axis = axis("ghb-", "ghb", ghb),
         .tables = {table("Figure 5: LVA output error by GHB size",
                          "fig5_ghb_error.csv",
                          join(series(names("GHB-", ghb), kError,
                                      CellFormat::Percent1),
                               series({"coverage@GHB-0"}, kCoverage,
                                      CellFormat::Percent1)))}},

        // The confidence gate covers integer data too (paper VI-B);
        // the LVP point has no output error, so 6b leaves it out.
        {.driver = "fig6_confidence",
         .heading = "Figure 6 reproduction",
         .workloads = all,
         .axis = {{windows[0], R"({"mode":"lvp"})"},
                  {windows[1], R"({"window":0.05,"confInts":true})"},
                  {windows[2], R"({"window":0.10,"confInts":true})"},
                  {windows[3], R"({"window":0.20,"confInts":true})"},
                  {windows[4], R"({"window":"inf","confInts":true})"}},
         .tables = {table("Figure 6a: normalized MPKI by confidence "
                          "window",
                          "fig6a_confidence_mpki.csv",
                          series(windows, kMpki, CellFormat::Fixed3)),
                    table("Figure 6b: output error by confidence window",
                          "fig6b_confidence_error.csv",
                          series({"5%", "10%", "20%", "infinite"}, kError,
                                 CellFormat::Percent1, 1))}},

        {.driver = "fig7_value_delay",
         .heading = "Figure 7 reproduction",
         .workloads = all,
         .axis = axis("delay-", "delay", {4, 8, 16, 32}),
         .tables = {table("Figure 7a: normalized MPKI by value delay",
                          "fig7a_delay_mpki.csv",
                          series(names("delay-", {4, 8, 16, 32}), kMpki,
                                 CellFormat::Fixed3)),
                    table("Figure 7b: output error by value delay",
                          "fig7b_delay_error.csv",
                          series(names("delay-", {4, 8, 16, 32}), kError,
                                 CellFormat::Percent1))}},

        // Prefetching applies to all loads; LVA only to annotated ones.
        {.driver = "fig8_degree_fetches",
         .heading = "Figure 8 reproduction",
         .workloads = all,
         .axis = join(axis("prefetch-", "prefetchDegree", degrees,
                           "\"mode\":\"prefetch\","),
                      axis("approx-", "degree", degrees)),
         .tables = {table("Figure 8a: normalized MPKI, prefetching vs LVA "
                          "degree",
                          "fig8a_degree_mpki.csv",
                          series(fig8Cols, kMpki, CellFormat::Fixed3)),
                    table("Figure 8b: normalized fetches, prefetching vs "
                          "LVA degree",
                          "fig8b_degree_fetches.csv",
                          series(fig8Cols, kFetches, CellFormat::Fixed3),
                          true)}},

        {.driver = "fig9_degree_error",
         .heading = "Figure 9 reproduction",
         .workloads = all,
         .axis = axis("degree-", "degree", {0, 2, 4, 8, 16}),
         .tables = {table("Figure 9: LVA output error by approximation "
                          "degree",
                          "fig9_degree_error.csv",
                          series(names("approx-", {0, 2, 4, 8, 16}),
                                 kError, CellFormat::Percent1))}},

        {.driver = "fig10_fullsystem",
         .heading = "Figure 10 reproduction",
         .fullSystem = true,
         .workloads = all,
         .axis = degreeAxis(),
         .tables = {table("Figure 10a: full-system speedup by "
                          "approximation degree (paper: 8.5% avg @0, "
                          "max 28.6%)",
                          "fig10a_speedup.csv",
                          perDegree([](std::string h, u32 i) {
                              return speedup(std::move(h), 0, i);
                          }),
                          true),
                    table("Figure 10b: energy savings by approximation "
                          "degree (paper: 12.6% avg @16, max 44.1%)",
                          "fig10b_energy.csv",
                          perDegree([](std::string h, u32 i) {
                              return compared(std::move(h), kEnergy,
                                              Compare::OneMinusRatio, i, 0);
                          }),
                          true)},
         .headlines = {compared("avg L1 miss latency reduction @degree 0 "
                                "(paper: 41.0%)",
                                "system.avgL1MissLatency",
                                Compare::OneMinusRatio, 1, 0),
                       compared("avg interconnect traffic reduction "
                                "@degree 16 (paper: 37.2%)",
                                kStatFlitHops, Compare::OneMinusRatio, 5,
                                0)}},

        {.driver = "fig11_edp",
         .heading = "Figure 11 reproduction",
         .fullSystem = true,
         .workloads = all,
         .axis = degreeAxis(),
         .tables = {table("Figure 11: normalized L1-miss EDP by "
                          "approximation degree (paper avg: 0.581 @0, "
                          "0.462 @4, 0.362 @16)",
                          "fig11_edp.csv",
                          perDegree([](std::string h, u32 i) {
                              return compared(std::move(h), kStatL1MissEdp,
                                              Compare::Ratio, i, 0,
                                              CellFormat::Fixed3);
                          }),
                          true)}},

        // Paper VII-B: GHB 2, confidence gate disabled.
        {.driver = "fig13_precision",
         .heading = "Figure 13 reproduction",
         .workloads = {"fluidanimate"},
         .axis = axis("drop-", "mantissaDrop", {0, 5, 11, 17, 23},
                      "\"ghb\":2,\"noConf\":true,"),
         .tables = {fig13Table()}},

        // Paper VI: "found average to be most accurate".
        {.driver = "ablation_estimators",
         .heading = "Estimator ablation",
         .workloads = all,
         .axis = {{"AVERAGE", R"({"estimator":"average"})"},
                  {"LAST", R"({"estimator":"last"})"},
                  {"STRIDE", R"({"estimator":"stride"})"}},
         .tables = mpkiAndError("ablation_estimators",
                                "Estimator ablation",
                                {"AVERAGE", "LAST", "STRIDE"}, true)},

        // Paper VII-A: the table can shrink well below 512 entries.
        {.driver = "ablation_table_size",
         .heading = "Table-size ablation",
         .workloads = all,
         .axis = axis("entries-", "table", {32, 128, 512, 2048}),
         .tables = mpkiAndError("ablation_table_size",
                                "Table-size ablation",
                                names("", {32, 128, 512, 2048}))},

        // Paper III-B future work: a failed validation decrements
        // confidence in proportion to the miss distance.
        {.driver = "ablation_confidence_step",
         .heading = "Proportional-confidence ablation",
         .workloads = all,
         .axis = {{"fixed", R"({"confInts":true,"window":0.10})"},
                  {"proportional", R"({"confInts":true,"window":0.10,)"
                                   R"("proportional":true})"}},
         .tables = {table("Future-work ablation: fixed vs proportional "
                          "confidence updates (+/-10% window, both data "
                          "types)",
                          "ablation_confidence_step.csv",
                          {{"MPKI fixed", 0, kMpki, CellFormat::Fixed3},
                           {"MPKI proportional", 1, kMpki,
                            CellFormat::Fixed3},
                           {"error fixed", 0, kError,
                            CellFormat::Percent1},
                           {"error proportional", 1, kError,
                            CellFormat::Percent1}})}},

        {.driver = "ablation_lhb_size",
         .heading = "LHB-size ablation",
         .workloads = all,
         .axis = axis("lhb-", "lhb", {1, 2, 4, 8}),
         .tables = mpkiAndError("ablation_lhb_size", "LHB-size ablation",
                                names("LHB-", {1, 2, 4, 8}))},

        // Paper VI-A: similar FP contexts alias in the direct-mapped
        // table. GHB 2 makes contexts value-dependent, where aliasing
        // occurs; total entries stay at 512.
        {.driver = "ablation_table_assoc",
         .heading = "Table-associativity ablation",
         .workloads = all,
         .axis = axis("ways-", "tableAssoc", {1, 2, 4, 8}, "\"ghb\":2,"),
         .tables = mpkiAndError("ablation_table_assoc",
                                "Associativity ablation (GHB 2)",
                                names("", {1, 2, 4, 8}, "-way"))},

        // Paper VI-C: training fetches only train the approximator,
        // so they can take a slow path; the extra cycles overrule
        // the machine's own setting on the LVA legs.
        {.driver = "ablation_slow_fetch",
         .heading = "Slow-training-fetch ablation",
         .fullSystem = true,
         .workloads = all,
         .axis = join({{"baseline", "{}", false}},
                      axis("extra-", "backgroundFetchExtraLatency",
                           {0, 100, 300}, "", 4)),
         .tables = {table("LVA (degree 4) speedup with deprioritized "
                          "training fetches",
                          "ablation_slow_fetch.csv",
                          {speedup("+0 cycles", 0, 1),
                           speedup("+100 cycles", 0, 2),
                           speedup("+300 cycles", 0, 3)})}},

        // Paper VI-C (citing Mishra et al.): training fetches ride a
        // second, low-energy mesh plane. The homo/hetero legs overrule
        // the machine file; the baseline keeps its setting.
        {.driver = "ablation_hetero_noc",
         .heading = "Heterogeneous-NoC ablation",
         .fullSystem = true,
         .workloads = all,
         .axis = {{"baseline", "{}", false},
                  {"homo", R"({"heteroNoc":false})", true, 4},
                  {"hetero", R"({"heteroNoc":true})", true, 4}},
         .tables = {table(
             "LVA (degree 4): homogeneous vs heterogeneous NoC for "
             "training fetches",
             "ablation_hetero_noc.csv",
             {speedup("speedup homo", 0, 1),
              speedup("speedup hetero", 0, 2),
              {"NoC energy homo", 1, "energy.noc", CellFormat::Fixed1},
              {"NoC energy hetero", 2, "energy.noc", CellFormat::Fixed1},
              compared("energy savings homo", kEnergy,
                       Compare::OneMinusRatio, 1, 0),
              compared("energy savings hetero", kEnergy,
                       Compare::OneMinusRatio, 2, 0)})}},

        // Table II's MSI against MESI. MESI is not uniformly cheaper:
        // the E state saves GetM upgrades on private read-write data
        // but forces owner forwards on read-shared data (the
        // directory cannot know whether an E copy was silently
        // dirtied), so traffic can go either way.
        {.driver = "ablation_coherence",
         .heading = "Coherence-protocol ablation",
         .fullSystem = true,
         .workloads = all,
         .axis = {{"msi-base", R"({"protocol":"msi"})", false},
                  {"msi-lva", R"({"protocol":"msi"})", true, 4},
                  {"mesi-base", R"({"protocol":"mesi"})", false},
                  {"mesi-lva", R"({"protocol":"mesi"})", true, 4}},
         .tables = {table("LVA (degree 4) speedup under MSI vs MESI",
                          "ablation_coherence.csv",
                          {speedup("LVA speedup (MSI)", 0, 1),
                           speedup("LVA speedup (MESI)", 2, 3),
                           compared("baseline traffic change (MESI vs "
                                    "MSI)",
                                    kStatFlitHops, Compare::RatioMinusOne,
                                    2, 0)})}},
    };
}

/** @p stat of @p s: a registry path, kStatL1MissEdp or kStatFlitHops. */
double
figureStat(const StatSnapshot &s, const std::string &stat)
{
    if (stat == kStatL1MissEdp) {
        const double servicing = s.valueOf("energy.l2") +
                                 s.valueOf("energy.dram") +
                                 s.valueOf("energy.noc");
        return servicing * s.valueOf("system.avgL1MissLatency");
    }
    if (stat == kStatFlitHops)
        return s.valueOf("energy.events.nocFlitHops") +
               s.valueOf("energy.events.nocFlitHopsSlow");
    return s.valueOf(stat);
}

std::string
cell(double v, CellFormat format)
{
    switch (format) {
      case CellFormat::Fixed3:
        return fmtDouble(v, 3);
      case CellFormat::Fixed1:
        return fmtDouble(v, 1);
      case CellFormat::Percent1:
        break;
    }
    return fmtPercent(v, 1);
}

/** One workload's table row: its label and each axis point's stats. */
struct Row
{
    std::string label;
    std::vector<const StatSnapshot *> stats;
};

double
columnValue(const FigureColumn &c, const Row &row)
{
    return compareStat(c.compare, *row.stats[c.point], *row.stats[c.over],
                       c.stat);
}

/** Column @p c averaged over @p rows, summed in row order. */
double
average(const FigureColumn &c, const std::vector<Row> &rows)
{
    double sum = 0.0;
    for (const Row &r : rows)
        sum += columnValue(c, r);
    return sum / static_cast<double>(rows.size());
}

Table
renderTable(const FigureTable &t, std::vector<Row> rows)
{
    if (!t.rows.empty()) { // transposed: one workload, row i = point i
        const Row only = rows.at(0);
        rows.clear();
        for (std::size_t i = 0; i < t.rows.size(); ++i)
            rows.push_back({t.rows[i], {only.stats[i]}});
    }

    std::vector<std::string> header = {t.corner};
    for (const FigureColumn &c : t.columns)
        header.push_back(c.header);
    Table table(header);
    for (const Row &r : rows) {
        std::vector<std::string> row = {r.label};
        for (const FigureColumn &c : t.columns)
            row.push_back(cell(columnValue(c, r), c.format));
        table.addRow(row);
    }
    if (t.average) {
        std::vector<std::string> row = {"average"};
        for (const FigureColumn &c : t.columns)
            row.push_back(cell(average(c, rows), c.format));
        table.addRow(row);
    }
    return table;
}

/** Print and write @p spec's tables over @p rows, then its headlines. */
void
publish(const FigureSpec &spec, const std::vector<Row> &rows)
{
    for (const FigureTable &t : spec.tables) {
        const Table table = renderTable(t, rows);
        table.print(t.title);
        table.writeCsv(resultsPath(t.csv));
    }
    std::printf("\n");
    for (const FigureColumn &h : spec.headlines)
        std::printf("%s: %s\n", h.header.c_str(),
                    cell(average(h, rows), h.format).c_str());
    for (const FigureTable &t : spec.tables)
        std::printf("wrote %s\n", resultsPath(t.csv).c_str());
}

int
runPhase1(const FigureSpec &spec, SweepRunner &runner,
          const SweepOptions &opts)
{
    const std::vector<SweepPoint> points =
        figurePoints(spec, machineBaseLva(opts));
    const SweepOutcome outcome = runner.runChecked(points, opts);

    // A failed point holds a nan placeholder, so every row renders.
    const std::size_t n = spec.axis.size();
    std::vector<Row> rows;
    for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
        Row row{spec.workloads[w], {}};
        for (std::size_t i = 0; i < n; ++i)
            row.stats.push_back(&outcome.results[w * n + i].stats);
        rows.push_back(std::move(row));
    }
    publish(spec, rows);
    std::printf("wrote %s\n",
                exportSweepStats(spec.driver, points, outcome).c_str());
    return reportSweepFailures(outcome);
}

int
runFullSystem(const FigureSpec &spec, SweepRunner &runner,
              const SweepOptions &opts)
{
    const MachineConfig machine = sweepMachine(opts);
    std::vector<FullSystemConfig> systems;
    try {
        systems = figureSystems(spec, machine);
    } catch (const std::runtime_error &e) {
        // An axis point edited the machine into one validate()
        // refuses, e.g. a slow NoC plane wider than the mesh.
        std::fprintf(stderr, "error: %s: %s\n", spec.driver.c_str(),
                     e.what());
        return 2;
    }
    const double scale = runner.evaluator().scale();
    const std::vector<std::string> &names = spec.workloads;

    // One task per workload: record its precise trace once, then
    // replay it under every axis point.
    const auto outcome = runner.mapChecked(
        names.size(),
        [&spec, &machine, &systems, scale](u64 w) {
            const std::string &name = spec.workloads[w];
            std::vector<FullSystemResult> runs = replayConfigs(
                recordPreciseTraces(name, 1, scale, &machine), systems);
            std::vector<NamedSnapshot> snaps;
            for (std::size_t i = 0; i < runs.size(); ++i)
                snaps.push_back({name + "/" + spec.axis[i].label, name,
                                 std::move(runs[i].stats)});
            return snaps;
        },
        opts, [&names](u64 w) { return names[w]; });

    // A failed workload is listed in the export's failures section
    // and left out of the tables and their averages.
    std::vector<Row> rows;
    std::vector<NamedSnapshot> snaps;
    for (std::size_t w = 0; w < names.size(); ++w) {
        if (!outcome.results[w])
            continue;
        Row row{names[w], {}};
        for (const NamedSnapshot &s : *outcome.results[w]) {
            row.stats.push_back(&s.stats);
            snaps.push_back(s);
        }
        rows.push_back(std::move(row));
    }
    publish(spec, rows);
    std::printf("wrote %s\n",
                writeStatsJson(spec.driver, snaps, outcome.failures)
                    .c_str());
    return reportSweepFailures(outcome.failures, names.size());
}

} // namespace

const std::vector<FigureSpec> &
figureSpecs()
{
    static const std::vector<FigureSpec> specs = buildSpecs();
    return specs;
}

const FigureSpec &
figureSpec(const std::string &driver)
{
    for (const FigureSpec &spec : figureSpecs())
        if (spec.driver == driver)
            return spec;
    throw std::runtime_error("no figure spec named \"" + driver + "\"");
}

std::vector<SweepPoint>
figurePoints(const FigureSpec &spec, const ApproxMemory::Config &base)
{
    std::vector<ApproxMemory::Config> configs;
    for (const FigureAxisPoint &p : spec.axis)
        configs.push_back(configFromJson(parseJson(p.config), base));

    std::vector<SweepPoint> points;
    for (const std::string &name : spec.workloads)
        for (std::size_t i = 0; i < spec.axis.size(); ++i)
            points.push_back({spec.axis[i].label, name, configs[i]});
    return points;
}

std::vector<FullSystemConfig>
figureSystems(const FigureSpec &spec, const MachineConfig &machine)
{
    std::vector<FullSystemConfig> systems;
    for (const FigureAxisPoint &p : spec.axis) {
        MachineConfig m = machine;
        applyMachineJson(m, parseJson(p.config));
        m.validate();
        systems.push_back(m.fullSystem(p.lva, p.degree));
    }
    return systems;
}

double
compareStat(Compare form, const StatSnapshot &a, const StatSnapshot &b,
            const std::string &stat)
{
    if (form == Compare::None)
        return figureStat(a, stat);
    const double ratio = figureStat(a, stat) / figureStat(b, stat);
    switch (form) {
      case Compare::RatioMinusOne:
        return ratio - 1.0;
      case Compare::OneMinusRatio:
        return 1.0 - ratio;
      case Compare::None:
      case Compare::Ratio:
        break;
    }
    return ratio;
}

int
runFigure(const FigureSpec &spec, SweepRunner &runner,
          const SweepOptions &opts)
{
    return spec.fullSystem ? runFullSystem(spec, runner, opts)
                           : runPhase1(spec, runner, opts);
}

int
figureMain(const std::string &driver, int argc, char **argv)
{
    const FigureSpec &spec = figureSpec(driver);
    BenchTimer timer(driver);
    Evaluator eval;
    if (spec.fullSystem) // one recorded trace (seed 1) per workload
        std::printf("%s (scale=%.2f)\n", spec.heading.c_str(),
                    eval.scale());
    else
        std::printf("%s (seeds=%u, scale=%.2f)\n", spec.heading.c_str(),
                    eval.seeds(), eval.scale());

    const SweepOptions opts = sweepOptionsFromCli(driver, argc, argv);
    SweepRunner runner(eval);
    return runFigure(spec, runner, opts);
}

} // namespace lva
