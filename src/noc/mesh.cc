#include "noc/mesh.hh"

#include "util/logging.hh"

namespace lva {

Mesh::Mesh(const MeshConfig &config)
    : config_(config),
      // One directed link per (node, neighbour) pair; index by
      // from-node * 4 + direction (N/S/E/W). Each link moves one flit
      // per cycle.
      links_(static_cast<std::size_t>(config.nodes()) * 4,
             SlottedResource(8.0, 8.0))
{
    lva_assert(config.cols >= 1 && config.rows >= 1, "empty mesh");
    const u32 n = config.nodes();
    routeStart_.reserve(static_cast<std::size_t>(n) * n + 1);
    routeStart_.push_back(0);
    for (u32 src = 0; src < n; ++src) {
        for (u32 dst = 0; dst < n; ++dst) {
            // XY routing: resolve X first, then Y.
            u32 cur = src;
            while (cur != dst) {
                const u32 x = xOf(cur);
                const u32 y = yOf(cur);
                u32 next;
                if (x != xOf(dst))
                    next = nodeAt(xOf(dst) > x ? x + 1 : x - 1, y);
                else
                    next = nodeAt(x, yOf(dst) > y ? y + 1 : y - 1);
                routeLinks_.push_back(static_cast<u32>(linkIndex(cur, next)));
                cur = next;
            }
            routeStart_.push_back(static_cast<u32>(routeLinks_.size()));
        }
    }
}

std::size_t
Mesh::linkIndex(u32 from, u32 to) const
{
    const i32 dx = static_cast<i32>(xOf(to)) - static_cast<i32>(xOf(from));
    const i32 dy = static_cast<i32>(yOf(to)) - static_cast<i32>(yOf(from));
    u32 dir;
    if (dy == -1 && dx == 0)
        dir = 0; // north
    else if (dy == 1 && dx == 0)
        dir = 1; // south
    else if (dx == 1 && dy == 0)
        dir = 2; // east
    else if (dx == -1 && dy == 0)
        dir = 3; // west
    else
        lva_panic("nodes %u and %u are not adjacent", from, to);
    return static_cast<std::size_t>(from) * 4 + dir;
}

double
Mesh::deliver(u32 src, u32 dst, u32 bytes, double now)
{
    lva_assert(src < config_.nodes() && dst < config_.nodes(),
               "bad node %u -> %u", src, dst);
    stats_.messages.inc();

    const u32 flits = config_.flitsFor(bytes);
    double t = now;

    if (src == dst) {
        // Local delivery still pays one router traversal.
        return t + config_.routerCycles;
    }

    for (const u32 link : route(src, dst)) {
        // The link is busy only while flits serialize across it; the
        // router pipeline adds latency but is itself pipelined.
        const double start = links_[link].acquire(t, flits);
        stats_.queueWait += start - t;
        stats_.flitHops.inc(flits);
        t = start + config_.routerCycles + flits;
    }
    return t;
}

} // namespace lva
