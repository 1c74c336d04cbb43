// Line-local lint fixture: an unsuppressed rand() on line 10 (no-rand)
// and a wall-clock read on line 12 that an lva-lint allow() above it
// silences.
#include <chrono>
#include <cstdlib>

int
noisySeed()
{
    const int r = rand();
    // lva-lint: allow(no-wall-clock)
    const auto t = std::chrono::system_clock::now();
    return r + static_cast<int>(t.time_since_epoch().count());
}
