// Line-local lint fixture: a push_back inside an lva-hot-path fence
// on line 9 is a hot-path-alloc finding.
#include <vector>

// lva-hot-path: begin (fixture fence)
void
hotGrow(std::vector<int> &ring, int x)
{
    ring.push_back(x);
}
// lva-hot-path: end
