#include "eval/coord.hh"

#include <algorithm>
#include <stdexcept>

#include "eval/service.hh"
#include "util/checkpoint.hh"
#include "util/logging.hh"
#include "util/stats_json.hh"

namespace lva {
namespace {

/**
 * One failure as the compact JSON object a shard record carries. Its
 * "timedOut" member is always false; it is kept so the lva-rpc-v1
 * schema holds.
 */
std::string
encodePointFailure(const PointFailure &f)
{
    return "{\"index\":" + std::to_string(f.index) +
           ",\"label\":" + jsonQuote(f.label) +
           ",\"workload\":" + jsonQuote(f.workload) +
           ",\"error\":" + jsonQuote(f.error) +
           ",\"attempts\":" + std::to_string(f.attempts) +
           ",\"timedOut\":false}";
}

PointFailure
decodePointFailure(const JsonValue &v)
{
    PointFailure f;
    f.index = v.at("index").asU64();
    f.label = v.at("label").asString();
    f.workload = v.at("workload").asString();
    f.error = v.at("error").asString();
    const u64 attempts = v.at("attempts").asU64();
    if (attempts > 0xffffffffull)
        throw std::runtime_error("shard failure: attempts out of range");
    f.attempts = static_cast<u32>(attempts);
    // Always false when written (encodePointFailure); still checked,
    // since a shard reply is outside input.
    if (v.at("timedOut").type != JsonValue::Type::Bool)
        throw std::runtime_error(
            "shard failure: timedOut must be a bool");
    return f;
}

} // namespace

ShardPlan
planShards(const std::vector<SweepPoint> &points, u32 shards)
{
    lva_assert(shards > 0, "planShards: no shards");
    ShardPlan plan;
    plan.shards = shards;
    plan.members.resize(shards);
    plan.keys.resize(shards);
    for (u64 i = 0; i < points.size(); ++i)
        plan.members[fleetShard(points[i].workload, shards)]
            .push_back(i);
    for (u32 s = 0; s < shards; ++s) {
        std::vector<std::string> names;
        for (const u64 i : plan.members[s])
            names.push_back(points[i].workload);
        std::sort(names.begin(), names.end());
        names.erase(std::unique(names.begin(), names.end()),
                    names.end());
        std::string key;
        for (const std::string &n : names) {
            if (!key.empty())
                key += ',';
            key += n;
        }
        plan.keys[s] = key + "#shard:" + std::to_string(s);
    }
    return plan;
}

std::string
shardDigest(const ShardPlan &plan,
            const std::vector<SweepPoint> &points, u32 shard)
{
    lva_assert(shard < plan.members.size(),
               "shardDigest: shard out of range");
    std::string blob = "shard:" + std::to_string(shard);
    for (const u64 i : plan.members[shard]) {
        blob += '\0';
        blob += sweepPointDigest(points[i]);
    }
    return hexU64(fnv1a64(blob));
}

std::string
coordContextKey(const Evaluator &eval, u32 shards)
{
    return sweepContextKey(eval) +
           ";shards=" + std::to_string(shards);
}

std::string
encodeShardRecord(const ShardRecord &record)
{
    std::string out =
        "{\"shard\":" + std::to_string(record.shard) + ",\"results\":[";
    for (std::size_t i = 0; i < record.results.size(); ++i) {
        if (i > 0)
            out += ',';
        out += record.results[i].failed
                   ? "null"
                   : encodeEvalResult(record.results[i]);
    }
    out += "],\"failures\":[";
    for (std::size_t i = 0; i < record.failures.size(); ++i) {
        if (i > 0)
            out += ',';
        out += encodePointFailure(record.failures[i]);
    }
    out += "]}";
    return out;
}

ShardRecord
decodeShardRecord(const JsonValue &payload)
{
    ShardRecord record;
    const u64 shard = payload.at("shard").asU64();
    if (shard > 0xffffffffull)
        throw std::runtime_error("shard record: shard out of range");
    record.shard = static_cast<u32>(shard);
    const JsonValue &results = payload.at("results");
    if (!results.isArray())
        throw std::runtime_error(
            "shard record: 'results' is not an array");
    record.results.reserve(results.items.size());
    for (const JsonValue &item : results.items) {
        record.results.push_back(item.type == JsonValue::Type::Null
                                     ? failedPointPlaceholder()
                                     : decodeEvalResult(item));
    }
    const JsonValue &failures = payload.at("failures");
    if (!failures.isArray())
        throw std::runtime_error(
            "shard record: 'failures' is not an array");
    for (const JsonValue &item : failures.items) {
        PointFailure f = decodePointFailure(item);
        if (f.index >= record.results.size())
            throw std::runtime_error(
                "shard record: failure index out of range");
        record.failures.push_back(std::move(f));
    }
    return record;
}

ShardRecord
shardRecordFromResponse(const JsonValue &response, u32 shard,
                        std::size_t pointCount)
{
    const JsonValue &ok = response.at("ok");
    if (ok.type != JsonValue::Type::Bool || !ok.boolean) {
        std::string why = "worker answered ok:false";
        if (const JsonValue *error = response.find("error"))
            why += ": " + error->asString();
        throw std::runtime_error(why);
    }
    if (response.at("op").asString() != "sweep")
        throw std::runtime_error("worker answered the wrong op");
    if (response.at("shard").asU64() != shard)
        throw std::runtime_error("worker answered the wrong shard");

    ShardRecord record = decodeShardRecord(response.at("record"));
    if (record.shard != shard)
        throw std::runtime_error("worker record names the wrong shard");
    if (record.results.size() != pointCount)
        throw std::runtime_error(
            "worker response: the record does not match the shard's "
            "point count");
    return record;
}

SweepOutcome
mergeShards(const ShardPlan &plan, std::size_t pointCount,
            const std::vector<ShardRecord> &records)
{
    SweepOutcome out;
    out.results.resize(pointCount);
    std::vector<u8> covered(pointCount, 0);
    for (const ShardRecord &record : records) {
        if (record.shard >= plan.members.size())
            throw std::runtime_error(
                "merge: record for shard " +
                std::to_string(record.shard) + " outside the plan");
        const std::vector<u64> &members = plan.members[record.shard];
        if (record.results.size() != members.size())
            throw std::runtime_error(
                "merge: shard " + std::to_string(record.shard) +
                " has " + std::to_string(record.results.size()) +
                " results for " + std::to_string(members.size()) +
                " points");
        for (std::size_t i = 0; i < members.size(); ++i) {
            const u64 g = members[i];
            lva_assert(g < pointCount,
                       "merge: plan index out of range");
            if (covered[g])
                throw std::runtime_error(
                    "merge: point " + std::to_string(g) +
                    " covered by two shard records");
            covered[g] = 1;
            out.results[g] = record.results[i];
        }
        for (const PointFailure &f : record.failures) {
            if (f.index >= members.size())
                throw std::runtime_error(
                    "merge: failure index out of range");
            PointFailure g = f;
            g.index = members[f.index];
            out.failures.push_back(std::move(g));
        }
    }
    for (std::size_t g = 0; g < pointCount; ++g)
        if (!covered[g])
            throw std::runtime_error(
                "merge: point " + std::to_string(g) +
                " not covered by any shard record");
    // A single-process runChecked collects failures in ascending
    // point order; match it so the "failures" section renders
    // byte-identically.
    std::sort(out.failures.begin(), out.failures.end(),
              [](const PointFailure &a, const PointFailure &b) {
                  return a.index < b.index;
              });
    return out;
}

} // namespace lva
