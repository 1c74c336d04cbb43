#include "eval/figure.hh"

#include <cstdio>
#include <initializer_list>
#include <stdexcept>
#include <utility>

#include "eval/service.hh"
#include "util/bench_timer.hh"
#include "util/results_dir.hh"
#include "util/table.hh"

namespace lva {
namespace {

const char kMpki[] = "eval.normMpki";
const char kFetches[] = "eval.normFetches";
const char kError[] = "eval.outputError";
const char kCoverage[] = "eval.coverage";

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
 * {<extra>"<key>":<v>} (@p extra: further members, comma-terminated).
 */
std::vector<FigureAxisPoint>
axis(const std::string &prefix, const std::string &key,
     std::initializer_list<u32> values, const std::string &extra = "")
{
    std::vector<FigureAxisPoint> out;
    for (u32 v : values)
        out.push_back({prefix + std::to_string(v),
                       "{" + extra + "\"" + key +
                           "\":" + std::to_string(v) + "}"});
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
    };
}

std::string
cell(double v, CellFormat format)
{
    return format == CellFormat::Fixed3 ? fmtDouble(v, 3)
                                        : fmtPercent(v, 1);
}

Table
renderTable(const FigureSpec &spec, const FigureTable &t,
            const std::vector<EvalResult> &results)
{
    std::vector<std::string> header = {t.corner};
    for (const FigureColumn &c : t.columns)
        header.push_back(c.header);
    Table table(header);

    const bool transposed = !t.rows.empty();
    const std::vector<std::string> &labels =
        transposed ? t.rows : spec.workloads;
    std::vector<double> sum(t.columns.size(), 0.0);
    for (std::size_t r = 0; r < labels.size(); ++r) {
        std::vector<std::string> row = {labels[r]};
        for (std::size_t c = 0; c < t.columns.size(); ++c) {
            const std::size_t point =
                transposed ? r : r * spec.axis.size() + t.columns[c].point;
            const double v = results[point].stats.valueOf(t.columns[c].stat);
            sum[c] += v;
            row.push_back(cell(v, t.columns[c].format));
        }
        table.addRow(row);
    }
    if (t.average) {
        const double n = static_cast<double>(labels.size());
        std::vector<std::string> row = {"average"};
        for (std::size_t c = 0; c < t.columns.size(); ++c)
            row.push_back(cell(sum[c] / n, t.columns[c].format));
        table.addRow(row);
    }
    return table;
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

int
runFigure(const FigureSpec &spec, SweepRunner &runner,
          const SweepOptions &opts)
{
    const std::vector<SweepPoint> points =
        figurePoints(spec, machineBaseLva(opts));
    const SweepOutcome outcome = runner.runChecked(points, opts);

    for (const FigureTable &t : spec.tables) {
        const Table table = renderTable(spec, t, outcome.results);
        table.print(t.title);
        table.writeCsv(resultsPath(t.csv));
    }
    std::printf("\n");
    for (const FigureTable &t : spec.tables)
        std::printf("wrote %s\n", resultsPath(t.csv).c_str());
    std::printf("wrote %s\n",
                exportSweepStats(spec.driver, points, outcome).c_str());
    return reportSweepFailures(outcome);
}

int
figureMain(const std::string &driver, int argc, char **argv)
{
    const FigureSpec &spec = figureSpec(driver);
    BenchTimer timer(driver);
    Evaluator eval;
    std::printf("%s (seeds=%u, scale=%.2f)\n", spec.heading.c_str(),
                eval.seeds(), eval.scale());

    const SweepOptions opts = sweepOptionsFromCli(driver, argc, argv);
    SweepRunner runner(eval);
    return runFigure(spec, runner, opts);
}

} // namespace lva
