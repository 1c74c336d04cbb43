/**
 * @file
 * Byte-identity pins for the hot-path refactor (stats-exactness).
 *
 * The repo's core invariant is that `lva-stats-v1` exports are
 * byte-identical for any LVA_JOBS and across internal refactors. These
 * tests pin the exact export bytes (as an FNV-1a digest) of the fig5
 * (phase-1 sweep) and fig10 (phase-2 full-system sweep) grids at a
 * fixed seed count and scale, for both the serial path (jobs=1) and a
 * pooled run (jobs=4). The digests were captured from the pre-refactor
 * (PR 5) tree, so any allocation/SoA/devirtualization rework of the
 * per-load hot path that drifts a single exported byte fails here —
 * the refactor must be value-exact, not merely plausible.
 *
 * If a FUTURE PR changes simulation semantics on purpose (new stat,
 * different estimator arithmetic), re-capture the digests by running
 * with LVA_PRINT_GOLDEN=1 and updating the constants — and say so in
 * the PR, because every historical figure shifts with them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "eval/figure.hh"
#include "eval/fullsystem_eval.hh"
#include "eval/sweep.hh"
#include "sim/machine_config.hh"
#include "util/checkpoint.hh"

namespace lva {
namespace {

// Captured from the pre-refactor tree at seeds=1, scale=0.05.
constexpr char kFig5GoldenDigest[] = "53df6e8b533dd4e5";
constexpr char kFig10GoldenDigest[] = "036da5fdd7d27b1f";

constexpr u32 kSeeds = 1;
constexpr double kScale = 0.05;

/** Print the digest when re-capturing goldens (LVA_PRINT_GOLDEN=1). */
void
maybePrintGolden(const char *what, const std::string &digest)
{
    if (std::getenv("LVA_PRINT_GOLDEN") != nullptr)
        std::printf("GOLDEN %s = %s\n", what, digest.c_str());
}

/** The fig5_ghb_error sweep grid, taken from the spec the shipped
 *  driver runs, built from @p base — Evaluator::baselineLva() or a
 *  machine's phase-1 projection. */
std::vector<SweepPoint>
fig5Points(const ApproxMemory::Config &base)
{
    return figurePoints(figureSpec("fig5_ghb_error"), base);
}

/**
 * Digest of the fig5 export as the pre-refactor tree rendered it. That
 * tree evaluated the points without the checked engine, so its
 * snapshots carry none of the sweep-runtime gauges (eval.retries.*,
 * eval.failures.*) runChecked folds in; they are dropped here.
 */
std::string
fig5ExportDigest(u32 jobs,
                 const ApproxMemory::Config &base =
                     Evaluator::baselineLva())
{
    Evaluator eval(kSeeds, kScale);
    SweepRunner runner(eval, jobs);
    const std::vector<SweepPoint> points = fig5Points(base);
    std::vector<EvalResult> results =
        runner.runChecked(points, {}).results;
    for (EvalResult &r : results)
        for (const EvalMetricDef &d : sweepRuntimeDefs())
            std::erase_if(r.stats.entries, [&d](const SnapEntry &e) {
                return e.path == d.path;
            });
    return hexU64(
        fnv1a64(renderSweepStats("fig5_ghb_error", points, results)));
}

TEST(RefactorIdentity, Fig5ExportBytesMatchPreRefactorSerial)
{
    const std::string digest = fig5ExportDigest(1);
    maybePrintGolden("fig5", digest);
    EXPECT_EQ(digest, kFig5GoldenDigest);
}

TEST(RefactorIdentity, Fig5ExportBytesMatchPreRefactorJobs4)
{
    const std::string digest = fig5ExportDigest(4);
    maybePrintGolden("fig5", digest);
    EXPECT_EQ(digest, kFig5GoldenDigest);
}

/** The exact fig10_fullsystem grid (bench/fig10_fullsystem.cc).
 *  @p machine as in runFullSystemSweep: null = built-in Table II. */
std::string
fig10ExportDigest(u32 jobs, const MachineConfig *machine = nullptr)
{
    const std::vector<u32> degrees = {0, 2, 4, 8, 16};
    const auto &names = allWorkloadNames();
    SweepRunner runner(jobs);
    const auto sweeps = runner.map(names.size(), [&](u64 i) {
        return runFullSystemSweep(names[i], degrees, /*seed=*/1, kScale,
                                  machine);
    });
    return hexU64(fnv1a64(renderStatsJson(
        "fig10_fullsystem", fsSweepSnapshots(sweeps), {})));
}

TEST(RefactorIdentity, Fig10ExportBytesMatchPreRefactorSerial)
{
    const std::string digest = fig10ExportDigest(1);
    maybePrintGolden("fig10", digest);
    EXPECT_EQ(digest, kFig10GoldenDigest);
}

TEST(RefactorIdentity, Fig10ExportBytesMatchPreRefactorJobs4)
{
    const std::string digest = fig10ExportDigest(4);
    maybePrintGolden("fig10", digest);
    EXPECT_EQ(digest, kFig10GoldenDigest);
}

// PR 10: passing the built-in machine *explicitly* — as a parsed
// config object, the way --machine/LVA_MACHINE do — must reproduce
// the same pre-config golden bytes as no machine at all, at any job
// count. This is the file-less/default-file equivalence the topology
// docs promise.

TEST(RefactorIdentity, Fig5ExplicitDefaultMachineMatchesGoldenSerial)
{
    EXPECT_EQ(fig5ExportDigest(1, defaultMachine().phase1Lva()),
              kFig5GoldenDigest);
}

TEST(RefactorIdentity, Fig5ExplicitDefaultMachineMatchesGoldenJobs4)
{
    EXPECT_EQ(fig5ExportDigest(4, defaultMachine().phase1Lva()),
              kFig5GoldenDigest);
}

TEST(RefactorIdentity, Fig5ParsedMinimalMachineMatchesGolden)
{
    // A machine that only says "schema" is the Table II machine.
    const MachineConfig m =
        machineFromJson(parseJson("{\"schema\":\"lva-machine-v1\"}"));
    EXPECT_EQ(fig5ExportDigest(1, m.phase1Lva()), kFig5GoldenDigest);
}

TEST(RefactorIdentity, Fig10ExplicitDefaultMachineMatchesGoldenSerial)
{
    EXPECT_EQ(fig10ExportDigest(1, &defaultMachine()),
              kFig10GoldenDigest);
}

TEST(RefactorIdentity, Fig10ExplicitDefaultMachineMatchesGoldenJobs4)
{
    EXPECT_EQ(fig10ExportDigest(4, &defaultMachine()),
              kFig10GoldenDigest);
}

} // namespace
} // namespace lva
