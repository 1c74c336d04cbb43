// Clean fixture driver.
int
main()
{
    return 0;
}
