// Drivers fixture: the figure drivers share figure_main.cc in the real
// tree, so the CMake names, not the sources, are the driver list.
int
main()
{
    return 0;
}
