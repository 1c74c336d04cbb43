/**
 * @file
 * Unit tests for the mesh NoC timing model: the 2x2 paper mesh, and
 * the precomputed route table against a step-by-step XY walk on
 * every mesh shape up to 32 nodes.
 */

#include <gtest/gtest.h>

#include <vector>

#include "noc/mesh.hh"
#include "util/random.hh"

namespace lva {
namespace {

MeshConfig
mesh2x2()
{
    return MeshConfig{}; // 2x2, 3-cycle routers, 16 B flits
}

TEST(MeshConfig, FlitMath)
{
    const MeshConfig cfg = mesh2x2();
    EXPECT_EQ(cfg.nodes(), 4u);
    EXPECT_EQ(cfg.flitsFor(MessageBytes::control), 1u);
    EXPECT_EQ(cfg.flitsFor(MessageBytes::data), 5u);
    EXPECT_EQ(cfg.flitsFor(1), 1u);
    EXPECT_EQ(cfg.flitsFor(16), 1u);
    EXPECT_EQ(cfg.flitsFor(17), 2u);
}

TEST(Mesh, LocalDeliveryPaysOneRouter)
{
    Mesh mesh(mesh2x2());
    EXPECT_DOUBLE_EQ(mesh.deliver(0, 0, 8, 10.0), 13.0);
}

TEST(Mesh, OneHopZeroLoadLatency)
{
    Mesh mesh(mesh2x2());
    // Node 0 -> node 1 is one hop: router (3) + 1 flit.
    EXPECT_DOUBLE_EQ(mesh.deliver(0, 1, 8, 0.0), 4.0);
}

TEST(Mesh, DiagonalIsTwoHops)
{
    Mesh mesh(mesh2x2());
    // Node 0 (0,0) -> node 3 (1,1): two hops, data message (5 flits).
    EXPECT_DOUBLE_EQ(mesh.deliver(0, 3, 72, 0.0), 16.0);
}

TEST(Mesh, FlitHopsAccumulate)
{
    Mesh mesh(mesh2x2());
    mesh.deliver(0, 1, 72, 0.0); // 5 flits * 1 hop
    mesh.deliver(0, 3, 72, 0.0); // 5 flits * 2 hops
    EXPECT_EQ(mesh.stats().flitHops.value(), 15u);
    EXPECT_EQ(mesh.stats().messages.value(), 2u);
}

TEST(Mesh, ContentionSerializesSameLink)
{
    Mesh mesh(mesh2x2());
    const double first = mesh.deliver(0, 1, 72, 0.0);
    const double second = mesh.deliver(0, 1, 72, 0.0);
    EXPECT_GT(second, first); // queued behind the first 5 flits
    EXPECT_GT(mesh.stats().queueWait, 0.0);
}

TEST(Mesh, DisjointLinksDoNotContend)
{
    Mesh mesh(mesh2x2());
    const double a = mesh.deliver(0, 1, 72, 0.0);
    const double b = mesh.deliver(3, 2, 72, 0.0);
    EXPECT_DOUBLE_EQ(a, b); // opposite edge, no shared link
}

TEST(Mesh, XyRoutingIsDeterministicLatency)
{
    Mesh mesh(mesh2x2());
    // All 1-hop pairs have identical zero-load latency.
    Mesh m2(mesh2x2());
    EXPECT_DOUBLE_EQ(mesh.deliver(1, 0, 8, 0.0),
                     m2.deliver(2, 3, 8, 0.0));
}

TEST(Mesh, LargerMeshMultiHop)
{
    MeshConfig cfg;
    cfg.cols = 4;
    cfg.rows = 4;
    Mesh mesh(cfg);
    // Node 0 (0,0) -> node 15 (3,3): 6 hops.
    EXPECT_DOUBLE_EQ(mesh.deliver(0, 15, 8, 0.0), 6.0 * 4.0);
}

TEST(Mesh, ThroughputOnHotLink)
{
    Mesh mesh(mesh2x2());
    double last = 0.0;
    for (int i = 0; i < 100; ++i)
        last = mesh.deliver(0, 1, 72, 0.0);
    // 100 x 5 flits over a 1-flit/cycle link: at least ~500 cycles.
    EXPECT_GE(last, 400.0);
}

/**
 * The XY walk the route table replaced: resolve X first, then Y, one
 * hop at a time. Links are numbered from-node * 4 + direction
 * (north, south, east, west).
 */
std::vector<u32>
xyWalk(const MeshConfig &cfg, u32 src, u32 dst)
{
    std::vector<u32> links;
    u32 x = src % cfg.cols;
    u32 y = src / cfg.cols;
    const u32 dx = dst % cfg.cols;
    const u32 dy = dst / cfg.cols;
    while (x != dx || y != dy) {
        const u32 from = y * cfg.cols + x;
        u32 dir;
        if (x != dx) {
            dir = dx > x ? 2 : 3;
            x = dx > x ? x + 1 : x - 1;
        } else {
            dir = dy > y ? 1 : 0;
            y = dy > y ? y + 1 : y - 1;
        }
        links.push_back(from * 4 + dir);
    }
    return links;
}

/** Every mesh shape of at most 32 nodes. */
std::vector<MeshConfig>
allShapes()
{
    std::vector<MeshConfig> shapes;
    for (u32 cols = 1; cols <= 32; ++cols)
        for (u32 rows = 1; cols * rows <= 32; ++rows)
            shapes.push_back(MeshConfig{cols, rows, 3, 16});
    return shapes;
}

TEST(MeshRoutes, TableEqualsXyWalkOnEveryShape)
{
    for (const MeshConfig &cfg : allShapes()) {
        const Mesh mesh(cfg);
        for (u32 src = 0; src < cfg.nodes(); ++src) {
            for (u32 dst = 0; dst < cfg.nodes(); ++dst) {
                const std::span<const u32> r = mesh.route(src, dst);
                const std::vector<u32> want = xyWalk(cfg, src, dst);
                ASSERT_EQ(std::vector<u32>(r.begin(), r.end()), want)
                    << cfg.cols << "x" << cfg.rows << " " << src
                    << " -> " << dst;
            }
        }
    }
}

/** The deliver() the route table replaced, over the XY walk. */
struct RefMesh
{
    explicit RefMesh(const MeshConfig &cfg)
        : cfg(cfg), links(static_cast<std::size_t>(cfg.nodes()) * 4,
                          SlottedResource(8.0, 8.0))
    {}

    double
    deliver(u32 src, u32 dst, u32 bytes, double now)
    {
        ++messages;
        const u32 flits = cfg.flitsFor(bytes);
        double t = now;
        if (src == dst)
            return t + cfg.routerCycles;
        for (const u32 link : xyWalk(cfg, src, dst)) {
            const double start = links[link].acquire(t, flits);
            queueWait += start - t;
            flitHops += flits;
            t = start + cfg.routerCycles + flits;
        }
        return t;
    }

    MeshConfig cfg;
    std::vector<SlottedResource> links;
    u64 messages = 0;
    u64 flitHops = 0;
    double queueWait = 0.0;
};

TEST(MeshRoutes, DeliverMatchesReferenceOnRandomTraffic)
{
    Rng rng(11);
    for (const MeshConfig &cfg : allShapes()) {
        Mesh mesh(cfg);
        RefMesh ref(cfg);
        double now = 0.0;
        for (int i = 0; i < 400; ++i) {
            const u32 src = static_cast<u32>(rng.below(cfg.nodes()));
            const u32 dst = static_cast<u32>(rng.below(cfg.nodes()));
            const u32 bytes = rng.chance(0.5) ? MessageBytes::control
                                              : MessageBytes::data;
            // Mostly advancing time with some out-of-order arrivals,
            // as the skewed core clocks produce.
            now += static_cast<double>(rng.below(8)) - 2.0;
            if (now < 0.0)
                now = 0.0;
            ASSERT_EQ(mesh.deliver(src, dst, bytes, now),
                      ref.deliver(src, dst, bytes, now))
                << cfg.cols << "x" << cfg.rows << " message " << i;
        }
        EXPECT_EQ(mesh.stats().messages.value(), ref.messages);
        EXPECT_EQ(mesh.stats().flitHops.value(), ref.flitHops);
        EXPECT_EQ(mesh.stats().queueWait, ref.queueWait);
    }
}

} // namespace
} // namespace lva
