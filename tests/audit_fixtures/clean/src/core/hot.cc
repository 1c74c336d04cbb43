// Clean fixture: a hot-path fence the docs/performance.md table lists.
int
step(int x)
{
    // lva-hot-path: begin
    return x + 1;
    // lva-hot-path: end
}
