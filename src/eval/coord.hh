/**
 * @file
 * Sweep sharding for lva_fleet (docs/serving.md, "Sharded sweeps").
 *
 * A fleet routes *whole* requests to workers, so one large sweep —
 * the unit of work behind every paper figure — would still run
 * inside a single lva_served process. A sweep request carrying
 * "shards": N makes tools/lva_fleet split it into shards, send them
 * across the fleet as ordinary `lva-rpc-v1` sweep requests, and merge
 * the shard results back into one `lva-stats-v1` export that is
 * byte-identical to a single-process run for any shard count, fleet
 * size, or kill schedule.
 *
 * The pieces are deliberately pure (no sockets, no processes) so
 * tests can pin the byte-identity property in-process:
 *
 *  - planShards(): points -> shards by rendezvous hash of each
 *    point's workload (the fleetRouteKey locality rule: all points
 *    needing a workload's goldens land in the same shard), keeping
 *    submission order within a shard.
 *  - shardDigest() / coordContextKey(): the identity a shard's
 *    completion record carries in the PR-4 append-only checkpoint
 *    manifest, so a killed frontend resumes finished shards.
 *  - encodeShardRecord() / decodeShardRecord(): one-line JSON shard
 *    payloads under the existing lva-manifest-v1 schema.
 *  - mergeShards(): shard records -> one SweepOutcome in global
 *    submission order, ready for renderSweepStats().
 */

#ifndef LVA_EVAL_COORD_HH
#define LVA_EVAL_COORD_HH

#include <string>
#include <vector>

#include "eval/sweep.hh"

namespace lva {

/**
 * One sweep's partition into shards. Shards may be empty (a shard
 * whose rendezvous slice holds no workload): callers skip them, and
 * skipping cannot change the merged bytes because the merge is
 * keyed by global point indices.
 */
struct ShardPlan
{
    u32 shards = 0; ///< requested shard count (>= 1)

    /** Global point indices per shard, in submission order. */
    std::vector<std::vector<u64>> members;

    /**
     * Per-shard routing key: the shard's sorted, deduplicated
     * workload set joined by ',' plus "#shard:<index>" — exactly
     * what fleetRouteKey() computes for the shard's sweep request,
     * so the plan names the worker each shard is routed to. Empty
     * shards get the bare "#shard:<index>" suffix.
     */
    std::vector<std::string> keys;
};

/**
 * Partition @p points into @p shards shards: point i goes to shard
 * fleetShard(points[i].workload, shards). Deterministic for any
 * shard count; every point lands in exactly one shard.
 */
ShardPlan planShards(const std::vector<SweepPoint> &points, u32 shards);

/**
 * Stable digest (16 hex chars) of shard @p shard under @p plan: the
 * shard index plus every member point's sweepPointDigest. Keys the
 * shard's completion record in the checkpoint manifest.
 */
std::string shardDigest(const ShardPlan &plan,
                        const std::vector<SweepPoint> &points,
                        u32 shard);

/**
 * The manifest context key for a sharded sweep: the evaluator-driven
 * sweepContextKey (schema, seeds, scale) plus the shard count, so a
 * manifest written under a different shard plan is never resumed.
 */
std::string coordContextKey(const Evaluator &eval, u32 shards);

/** One shard's completed results, in shard-local submission order. */
struct ShardRecord
{
    u32 shard = 0;

    /** One entry per shard member; failed points hold the failed
     *  placeholder (their snapshot is never rendered). */
    std::vector<EvalResult> results;

    /** Worker-side failures with shard-local indices. */
    std::vector<PointFailure> failures;
};

/**
 * Serialize / restore one completed shard for the manifest. The
 * payload is one JSON line: completed results travel through
 * encodeEvalResult (byte-exact round trip), failed points as null,
 * failures as structured records.
 */
std::string encodeShardRecord(const ShardRecord &record);
ShardRecord decodeShardRecord(const JsonValue &payload);

/**
 * Build a ShardRecord from a worker's detailed sweep response
 * (request member "detail": true): the "results" array maps
 * one-to-one onto the shard's points (null = failed), and
 * "failureDetail" carries the shard-local failures. Throws
 * std::runtime_error on a malformed or failed response.
 */
ShardRecord shardRecordFromResponse(const JsonValue &response,
                                    u32 shard,
                                    std::size_t pointCount);

/**
 * Merge every shard's record into one outcome over @p pointCount
 * global points: results return to their global submission indices,
 * failures are remapped shard-local -> global and ordered by index.
 * Requires exactly one record per non-empty shard of @p plan; the
 * result renders byte-identically to a single-process runChecked
 * through renderSweepStats(), which is what coord_test pins.
 */
SweepOutcome mergeShards(const ShardPlan &plan, std::size_t pointCount,
                         const std::vector<ShardRecord> &records);

} // namespace lva

#endif // LVA_EVAL_COORD_HH
