/**
 * @file
 * The main of every driver in the FigureSpec table. Each of those
 * executables is this file compiled with LVA_FIGURE naming its
 * FigureSpec (src/eval/figure.cc), which holds the sweep axis, the
 * tables and the CSV names.
 */

#include "eval/figure.hh"

int
main(int argc, char **argv)
{
    return lva::figureMain(LVA_FIGURE, argc, argv);
}
