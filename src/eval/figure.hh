/**
 * @file
 * The phase-1 figure and ablation drivers as data.
 *
 * Paper Figs. 4-9 and 13 and the five approximator ablations each
 * sweep one design axis over the workloads and tabulate a metric or
 * two per axis point. A FigureSpec states such a sweep: the axis as
 * labelled config overrides in the configFromJson vocabulary (the
 * same keys an RPC "config" object, an lva-machine-v1 "approx" object
 * and an lva_explore flag use), and each output table as columns of
 * (axis point, stat path, number format). runFigure() is the one
 * engine that runs any spec; every figure binary is
 * bench/figure_main.cc compiled with the spec's driver name.
 */

#ifndef LVA_EVAL_FIGURE_HH
#define LVA_EVAL_FIGURE_HH

#include <string>
#include <vector>

#include "eval/sweep.hh"

namespace lva {

/** How a cell renders its stat: fmtDouble(v, 3) or fmtPercent(v, 1). */
enum class CellFormat { Fixed3, Percent1 };

/** One output column: a stat of one axis point. */
struct FigureColumn
{
    std::string header;
    u32 point = 0; ///< axis index (unused by transposed tables)
    std::string stat;
    CellFormat format = CellFormat::Fixed3;
};

/** One printed table and its CSV under results/. */
struct FigureTable
{
    std::string title;
    std::string csv;
    std::vector<FigureColumn> columns;
    /** Append an "average" row: each column's mean over the rows. */
    bool average = false;
    /** Header of the row-label column. */
    std::string corner = "benchmark";
    /**
     * Empty: one row per workload. Otherwise the table is transposed
     * (one workload): row i is axis point i, labelled rows[i].
     */
    std::vector<std::string> rows;
};

/** One axis point: its sweep label and its configFromJson override. */
struct FigureAxisPoint
{
    std::string label;
    std::string config;
};

/** One figure driver: a workload x axis sweep and its tables. */
struct FigureSpec
{
    std::string driver;  ///< executable and stats export name
    std::string heading; ///< stdout banner ("Figure 7 reproduction")
    std::vector<std::string> workloads;
    std::vector<FigureAxisPoint> axis;
    std::vector<FigureTable> tables;
};

/** Every phase-1 figure and ablation, in docs/reproducing.md order. */
const std::vector<FigureSpec> &figureSpecs();

/** The spec named @p driver; throws std::runtime_error if none. */
const FigureSpec &figureSpec(const std::string &driver);

/**
 * The sweep grid of @p spec on @p base, workload-major and
 * axis-minor: point w * axis.size() + i is axis point i of workload w.
 */
std::vector<SweepPoint> figurePoints(const FigureSpec &spec,
                                     const ApproxMemory::Config &base);

/**
 * Run @p spec on the machine of @p opts: print its tables, write
 * their CSVs and the stats export, and return the driver exit code
 * (reportSweepFailures).
 */
int runFigure(const FigureSpec &spec, SweepRunner &runner,
              const SweepOptions &opts);

/** A figure binary's main: banner, CLI, runFigure, elapsed time. */
int figureMain(const std::string &driver, int argc, char **argv);

} // namespace lva

#endif // LVA_EVAL_FIGURE_HH
