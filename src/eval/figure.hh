/**
 * @file
 * The figure and ablation drivers as data.
 *
 * Each paper figure or ablation sweeps one design axis over the
 * workloads and tabulates a metric or two per axis point. A
 * FigureSpec states such a sweep, and runFigure() is the one engine
 * that runs any spec; the figure drivers are one executable,
 * bench/figure_main.cc, which runs the spec named by the basename it
 * is invoked under (each driver under bench/ is a link to it).
 *
 * A phase-1 spec (Figs. 4-9 and 13, the five approximator
 * ablations) writes its axis as labelled config overrides in the
 * configFromJson vocabulary (the same keys an RPC "config" object,
 * an lva-machine-v1 "approx" object and an lva_explore flag use). A
 * full-system spec (Figs. 10 and 11, the coherence, heterogeneous-NoC
 * and slow-fetch ablations) records each workload's precise trace
 * once and replays it per axis point, each point being the LVA
 * switch, a degree and an lva-machine-v1 override of the sweep's
 * machine. Tables are columns of (axis point, stat, number format),
 * where a column may also compare its stat between two axis points.
 */

#ifndef LVA_EVAL_FIGURE_HH
#define LVA_EVAL_FIGURE_HH

#include <string>
#include <vector>

#include "eval/sweep.hh"
#include "sim/full_system.hh"

namespace lva {

/** How a cell renders its value: fmtDouble(v, 3 or 1), fmtPercent(v, 1). */
enum class CellFormat { Fixed3, Fixed1, Percent1 };

/**
 * How a column compares its stat a (at axis point `point`) with b
 * (at axis point `over`): not at all (a), a/b, a/b - 1 (speedup,
 * traffic change) or 1 - a/b (savings, reductions).
 */
enum class Compare { None, Ratio, RatioMinusOne, OneMinusRatio };

/**
 * Stats a column may name besides registry paths: the L1-miss
 * energy-delay product (paper Fig. 11: L2 + DRAM + NoC energy times
 * the average L1 miss latency) and the flit-hops of both mesh planes.
 */
inline constexpr char kStatL1MissEdp[] = "l1MissEdp";
inline constexpr char kStatFlitHops[] = "flitHops";

/** One output column: a stat of one axis point, or a comparison. */
struct FigureColumn
{
    std::string header;
    u32 point = 0; ///< axis index (0 in transposed tables)
    std::string stat;
    CellFormat format = CellFormat::Fixed3;
    Compare compare = Compare::None;
    u32 over = 0; ///< axis index of b when compare != None
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

/**
 * One axis point: its sweep label and its override. A phase-1 point
 * overrides the sweep's base config through configFromJson; a
 * full-system point applies lva-machine-v1 members to the sweep's
 * machine (applyMachineJson) and replays on fullSystem(lva, degree).
 */
struct FigureAxisPoint
{
    std::string label;
    std::string config;
    bool lva = true; ///< full system: LVA on, else the precise baseline
    u32 degree = 0;  ///< full system: approximation degree
};

/** One figure driver: a workload x axis sweep and its tables. */
struct FigureSpec
{
    std::string driver;  ///< executable and stats export name
    std::string heading; ///< stdout banner ("Figure 7 reproduction")
    /** Record-and-replay through the timing model, not phase 1. */
    bool fullSystem = false;
    std::vector<std::string> workloads;
    std::vector<FigureAxisPoint> axis;
    std::vector<FigureTable> tables;
    /** Printed after the tables as "<header>: <average>", no file. */
    std::vector<FigureColumn> headlines{};
};

/** Every figure and ablation spec, in docs/reproducing.md order. */
const std::vector<FigureSpec> &figureSpecs();

/** The spec named @p driver; throws std::runtime_error if none. */
const FigureSpec &figureSpec(const std::string &driver);

/**
 * The sweep grid of phase-1 @p spec on @p base, workload-major and
 * axis-minor: point w * axis.size() + i is axis point i of workload w.
 */
std::vector<SweepPoint> figurePoints(const FigureSpec &spec,
                                     const ApproxMemory::Config &base);

/**
 * The replay configurations of full-system @p spec on @p machine:
 * configs[i] is axis point i. Each edited machine is validated, so
 * an override the machine cannot take (a slow NoC plane wider than
 * the mesh) throws validate()'s std::runtime_error.
 */
std::vector<FullSystemConfig>
figureSystems(const FigureSpec &spec, const MachineConfig &machine);

/**
 * @p stat (a registry path, kStatL1MissEdp or kStatFlitHops) of @p a
 * compared with that of @p b in @p form: the value a column shows.
 */
double compareStat(Compare form, const StatSnapshot &a,
                   const StatSnapshot &b, const std::string &stat);

/**
 * Run @p spec on the machine of @p opts at the evaluator's scale
 * (a full-system spec replays seed 1): print its tables and
 * headlines, write their CSVs and the stats export, and return the
 * driver exit code (reportSweepFailures). A failed phase-1 point
 * renders as nan; a failed full-system workload drops its row, and
 * averages cover the workloads that completed. A full-system axis
 * point the machine cannot take returns 2 before anything runs or
 * is written.
 */
int runFigure(const FigureSpec &spec, SweepRunner &runner,
              const SweepOptions &opts);

/** A figure binary's main: banner, CLI, runFigure, elapsed time. */
int figureMain(const std::string &driver, int argc, char **argv);

} // namespace lva

#endif // LVA_EVAL_FIGURE_HH
