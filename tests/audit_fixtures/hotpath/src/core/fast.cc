// Hot-path fixture: a documented fence.
int
fast(int x)
{
    // lva-hot-path: begin
    return x + 1;
    // lva-hot-path: end
}
