/**
 * @file
 * 2x2 mesh network-on-chip timing model (the BookSim substitute).
 *
 * Dimension-ordered (XY) routing over 3-cycle routers and 16-byte
 * links. Each directed link keeps a busy-until time: messages queue
 * behind earlier traffic and occupy the link for their flit count,
 * modelling both serialization and contention. The XY route of every
 * (src, dst) pair is precomputed as a list of link indices. Flit-hops
 * are counted for the interconnect-traffic and energy results.
 */

#ifndef LVA_NOC_MESH_HH
#define LVA_NOC_MESH_HH

#include <span>
#include <vector>

#include "util/slotted_resource.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace lva {

/** Mesh geometry and timing parameters (paper Table II). */
struct MeshConfig
{
    u32 cols = 2;
    u32 rows = 2;
    u32 routerCycles = 3;  ///< per-hop router pipeline latency
    u32 flitBytes = 16;    ///< link width

    u32 nodes() const { return cols * rows; }

    /** Flits needed for a message of @p bytes (at least 1). */
    u32
    flitsFor(u32 bytes) const
    {
        return (bytes + flitBytes - 1) / flitBytes;
    }
};

/** Message sizes used by the coherence protocol. */
struct MessageBytes
{
    static constexpr u32 control = 8;       ///< request / ack / inv
    static constexpr u32 data = 64 + 8;     ///< cache block + header
};

/** Traffic counters for the NoC. */
struct MeshStats
{
    Counter messages;
    Counter flitHops; ///< flits * hops traversed (energy proxy)
    double queueWait = 0.0; ///< total cycles spent waiting for links

    void
    reset()
    {
        messages.reset();
        flitHops.reset();
        queueWait = 0.0;
    }
};

/**
 * Analytic mesh timing: deliver() computes the arrival time of one
 * message given the current global time, advancing per-link busy
 * windows so that overlapping messages contend.
 */
class Mesh
{
  public:
    explicit Mesh(const MeshConfig &config);

    const MeshConfig &config() const { return config_; }

    /**
     * Send @p bytes from node @p src to node @p dst at time @p now.
     * @return the cycle at which the message is fully delivered
     */
    double deliver(u32 src, u32 dst, u32 bytes, double now);

    const MeshStats &stats() const { return stats_; }

    /** Directed link indices of the XY route from @p src to @p dst,
     *  in traversal order (empty when src == dst). */
    std::span<const u32>
    route(u32 src, u32 dst) const
    {
        const std::size_t r =
            static_cast<std::size_t>(src) * config_.nodes() + dst;
        return {routeLinks_.data() + routeStart_[r],
                routeStart_[r + 1] - routeStart_[r]};
    }

  private:
    u32 xOf(u32 node) const { return node % config_.cols; }
    u32 yOf(u32 node) const { return node / config_.cols; }
    u32 nodeAt(u32 x, u32 y) const { return y * config_.cols + x; }

    /** Directed link index from @p from to adjacent node @p to. */
    std::size_t linkIndex(u32 from, u32 to) const;

    MeshConfig config_;
    std::vector<SlottedResource> links_;

    /**
     * Route table, built once by the constructor: the links of the
     * route from src to dst are routeLinks_[routeStart_[r] ..
     * routeStart_[r + 1]) with r = src * nodes + dst. Machines have
     * at most 32 nodes, so at most 1,024 routes.
     */
    std::vector<u32> routeStart_;
    std::vector<u32> routeLinks_;
    MeshStats stats_;
};

} // namespace lva

#endif // LVA_NOC_MESH_HH
