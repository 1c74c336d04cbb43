// Hot-path fixture: tests/ is outside the fenced-file inventory.
int
probe(int x)
{
    // lva-hot-path: begin
    return x;
    // lva-hot-path: end
}
