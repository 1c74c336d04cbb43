// Hot-path fixture: this fence has no docs/performance.md row.
int
slow(int x)
{
    // lva-hot-path: begin (per-call path)
    return x * 2;
    // lva-hot-path: end
}
