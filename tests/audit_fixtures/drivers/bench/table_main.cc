// Drivers fixture: in the real tree the figure drivers are links to one
// executable, so the CMake names, not the sources, are the driver list.
int
main()
{
    return 0;
}
