/**
 * @file
 * Standalone ThreadSanitizer determinism check (no gtest, so the
 * whole binary is tsan-instrumented when built with -DLVA_TSAN=ON).
 *
 * Hammers the thread pool and the Evaluator's shared golden-run
 * cache from many workers, twice over (the second pass hits the warm
 * cache concurrently), and verifies the parallel results are
 * bit-identical to a serial run. The pooled runChecked passes queue
 * their golden tasks ahead of the points, so the golden builds race
 * the points that coalesce onto them. A small full-system sweep under
 * mapChecked covers the nested replay fan-out (the pool's helper
 * tasks replaying one shared trace). Data races in the pool, the
 * golden cache or the replay fan-out fail `scripts/run_all.sh quick`
 * via this binary.
 */

#include <atomic>
#include <cstdio>
#include <vector>

#include "eval/fullsystem_eval.hh"
#include "eval/stat_report.hh"
#include "eval/sweep.hh"
#include "util/thread_pool.hh"

using namespace lva;

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

std::vector<SweepPoint>
grid()
{
    std::vector<SweepPoint> points;
    for (const auto &name : allWorkloadNames()) {
        points.push_back({"precise", name, Evaluator::preciseConfig()});
        points.push_back({"lva", name, Evaluator::baselineLva()});
        ApproxMemory::Config deg8 = Evaluator::baselineLva();
        deg8.approx.approxDegree = 8;
        points.push_back({"deg8", name, deg8});
    }
    return points;
}

bool
identical(const EvalResult &a, const EvalResult &b)
{
    return a.preciseMpki == b.preciseMpki && a.mpki == b.mpki &&
           a.normMpki == b.normMpki &&
           a.preciseFetches == b.preciseFetches &&
           a.fetches == b.fetches && a.normFetches == b.normFetches &&
           a.outputError == b.outputError &&
           a.coverage == b.coverage &&
           a.instrVariation == b.instrVariation &&
           a.instructions == b.instructions;
}

} // namespace

int
main()
{
    // 1. Raw pool stress: many tiny tasks racing on an atomic.
    {
        ThreadPool pool(4);
        std::atomic<u64> sum{0};
        std::vector<std::future<u64>> futures;
        for (u64 i = 0; i < 512; ++i)
            futures.push_back(pool.submit([i, &sum] {
                sum += i;
                return i;
            }));
        u64 got = 0;
        for (auto &f : futures)
            got += f.get();
        check(got == 512 * 511 / 2, "pool task results");
        check(sum.load() == 512 * 511 / 2, "pool side effects");
    }

    // 2. Sweep determinism with a shared, initially cold golden
    //    cache; pass 2 re-runs every point against the warm cache.
    const std::vector<SweepPoint> points = grid();

    Evaluator serial_eval(2, 0.05);
    SweepRunner serial(serial_eval, 1);
    const std::vector<EvalResult> expect =
        serial.runChecked(points, {}).results;

    Evaluator par_eval(2, 0.05);
    SweepRunner par(par_eval, 8);
    for (int pass = 0; pass < 2; ++pass) {
        const std::vector<EvalResult> got =
            par.runChecked(points, {}).results;
        check(got.size() == expect.size(), "result count");
        for (std::size_t i = 0; i < expect.size(); ++i)
            check(identical(expect[i], got[i]),
                  "parallel result identical to serial");
    }

    // 3. Full-system replays fanned out inside pool tasks: the export
    //    must match the serial loop's bytes.
    {
        const std::vector<std::string> names = {"canneal", "bodytrack"};
        const std::vector<u32> degrees = {0, 4, 16};
        auto sweep = [&](u64 i) {
            return runFullSystemSweep(names[i], degrees, 1, 0.05);
        };
        auto render = [](const std::vector<FsSweep> &sweeps) {
            return renderStatsJson("tsan_fs", fsSweepSnapshots(sweeps));
        };
        const std::string want = render({sweep(0), sweep(1)});

        SweepRunner fs(4);
        auto mapped = fs.mapChecked(names.size(), sweep);
        check(mapped.ok(), "full-system sweep completed");
        std::vector<FsSweep> got;
        for (auto &r : mapped.results)
            if (r)
                got.push_back(std::move(*r));
        check(render(got) == want,
              "fanned-out full-system export identical to serial");
    }

    if (failures) {
        std::fprintf(stderr, "tsan_sweep_check: %d failure(s)\n",
                     failures);
        return 1;
    }
    std::printf("tsan_sweep_check: OK\n");
    return 0;
}
