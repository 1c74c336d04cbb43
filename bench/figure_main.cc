/**
 * @file
 * The main of every driver in the FigureSpec table. There is one
 * executable, and each driver name under bench/ is a link to it: the
 * basename it is invoked under names the FigureSpec
 * (src/eval/figure.cc), which holds the sweep axis, the tables and
 * the CSV names. Any other name is a usage error (exit 2) before
 * anything runs or is written.
 */

#include <cstdio>
#include <filesystem>
#include <string>

#include "eval/figure.hh"

int
main(int argc, char **argv)
{
    const std::string driver =
        argc > 0 ? std::filesystem::path(argv[0]).filename().string() : "";
    for (const lva::FigureSpec &spec : lva::figureSpecs())
        if (spec.driver == driver)
            return lva::figureMain(driver, argc, argv);

    std::fprintf(stderr, "usage: run \"%s\" as one of the drivers:",
                 driver.c_str());
    for (const lva::FigureSpec &spec : lva::figureSpecs())
        std::fprintf(stderr, " %s", spec.driver.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}
