#include "sim/machine_config.hh"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/stats_json.hh"

namespace lva {

namespace {

[[noreturn]] void
fail(const std::string &what)
{
    throw std::runtime_error("machine: " + what);
}

u32
u32Field(const std::string &key, const JsonValue &value)
{
    const u64 v = value.asU64();
    if (v > std::numeric_limits<u32>::max())
        fail("\"" + key + "\" out of range");
    return static_cast<u32>(v);
}

bool
boolField(const std::string &key, const JsonValue &value)
{
    if (value.type != JsonValue::Type::Bool)
        fail("\"" + key + "\" must be true or false");
    return value.boolean;
}

Estimator
estimatorFromName(const std::string &name)
{
    if (name == "average")
        return Estimator::Average;
    if (name == "last")
        return Estimator::Last;
    if (name == "stride")
        return Estimator::Stride;
    fail("unknown estimator \"" + name + "\"");
}

const char *
estimatorJsonName(Estimator e)
{
    switch (e) {
      case Estimator::Average:
        return "average";
      case Estimator::Last:
        return "last";
      case Estimator::Stride:
        return "stride";
    }
    return "?";
}

bool
powerOfTwo(u64 v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

void
requireObject(const std::string &key, const JsonValue &v)
{
    if (!v.isObject())
        fail("\"" + key + "\" must be a JSON object");
}

/** Shared size/assoc/block checks for one cache level. */
void
validateCache(const std::string &label, const CacheConfig &c)
{
    if (c.sizeBytes == 0 || c.assoc == 0 || c.blockBytes == 0)
        fail(label + ": size, assoc and block must be positive");
    if (!powerOfTwo(c.blockBytes) || c.blockBytes < 8)
        fail(label + ": block must be a power of two >= 8");
    if (c.sizeBytes % (u64(c.assoc) * c.blockBytes) != 0)
        fail(label + ": size must be a multiple of assoc * block");
    if (!powerOfTwo(c.numSets()))
        fail(label + ": set count " + std::to_string(c.numSets()) +
             " is not a power of two");
}

void
validateApprox(const std::string &label, const ApproximatorConfig &a)
{
    if (a.tableEntries == 0 || a.tableAssoc == 0)
        fail(label + ": table and tableAssoc must be positive");
    if (a.tableEntries % a.tableAssoc != 0)
        fail(label + ": tableAssoc must divide table");
    if (a.confidenceBits == 0 || a.confidenceBits > 31)
        fail(label + ": confidenceBits must be in [1, 31]");
    if (!(a.confidenceWindow >= 0.0)) // NaN rejected too
        fail(label + ": window must be >= 0 or \"inf\"");
    if (a.lhbEntries == 0)
        fail(label + ": lhb must be positive");
    if (a.tagBits > 64)
        fail(label + ": tagBits must be <= 64");
    if (a.mantissaDropBits > 52)
        fail(label + ": mantissaDrop must be <= 52");
}

void
parseCache(const std::string &label, const JsonValue &v,
           CacheConfig &out, u32 *latency)
{
    requireObject(label, v);
    for (const auto &[key, value] : v.members) {
        if (key == "size")
            out.sizeBytes = value.asU64();
        else if (key == "assoc")
            out.assoc = u32Field(label + ".assoc", value);
        else if (key == "block")
            out.blockBytes = u32Field(label + ".block", value);
        else if (key == "latency" && latency != nullptr)
            *latency = u32Field(label + ".latency", value);
        else
            fail(label + ": unknown key \"" + key + "\"");
    }
}

void
parseMesh(const std::string &label, const JsonValue &v, MeshConfig &out)
{
    requireObject(label, v);
    for (const auto &[key, value] : v.members) {
        if (key == "cols")
            out.cols = u32Field(label + ".cols", value);
        else if (key == "rows")
            out.rows = u32Field(label + ".rows", value);
        else if (key == "routerCycles")
            out.routerCycles = u32Field(label + ".routerCycles", value);
        else if (key == "flitBytes")
            out.flitBytes = u32Field(label + ".flitBytes", value);
        else
            fail(label + ": unknown key \"" + key + "\"");
    }
}

void
parseApprox(const std::string &label, const JsonValue &v,
            ApproximatorConfig &out)
{
    requireObject(label, v);
    for (const auto &[key, value] : v.members)
        if (!applyApproxKey(out, key, value))
            fail(label + ": unknown key \"" + key + "\"");
}

std::string
renderCache(const CacheConfig &c, const u32 *latency)
{
    std::string out = "{\"size\":" + std::to_string(c.sizeBytes) +
                      ",\"assoc\":" + std::to_string(c.assoc) +
                      ",\"block\":" + std::to_string(c.blockBytes);
    if (latency != nullptr)
        out += ",\"latency\":" + std::to_string(*latency);
    return out + "}";
}

std::string
renderMesh(const MeshConfig &m)
{
    return "{\"cols\":" + std::to_string(m.cols) +
           ",\"rows\":" + std::to_string(m.rows) +
           ",\"routerCycles\":" + std::to_string(m.routerCycles) +
           ",\"flitBytes\":" + std::to_string(m.flitBytes) + "}";
}

std::string
renderApprox(const ApproximatorConfig &a)
{
    const std::string window =
        std::isfinite(a.confidenceWindow)
            ? jsonDouble(a.confidenceWindow)
            : std::string("\"inf\"");
    return "{\"table\":" + std::to_string(a.tableEntries) +
           ",\"tableAssoc\":" + std::to_string(a.tableAssoc) +
           ",\"confidenceBits\":" + std::to_string(a.confidenceBits) +
           ",\"window\":" + window +
           ",\"confInts\":" + (a.confidenceForInts ? "true" : "false") +
           ",\"noConf\":" + (a.confidenceDisabled ? "true" : "false") +
           ",\"ghb\":" + std::to_string(a.ghbEntries) +
           ",\"lhb\":" + std::to_string(a.lhbEntries) +
           ",\"tagBits\":" + std::to_string(a.tagBits) +
           ",\"delay\":" + std::to_string(a.valueDelay) +
           ",\"degree\":" + std::to_string(a.approxDegree) +
           ",\"estimator\":\"" +
           std::string(estimatorJsonName(a.estimator)) + "\"" +
           ",\"proportional\":" +
           (a.proportionalConfidence ? "true" : "false") +
           ",\"mantissaDrop\":" + std::to_string(a.mantissaDropBits) +
           "}";
}

} // namespace

const char *
machineSchema()
{
    return "lva-machine-v1";
}

bool
applyApproxKey(ApproximatorConfig &a, const std::string &key,
               const JsonValue &value)
{
    if (key == "table") {
        a.tableEntries = u32Field(key, value);
    } else if (key == "tableAssoc") {
        a.tableAssoc = u32Field(key, value);
    } else if (key == "confidenceBits") {
        a.confidenceBits = u32Field(key, value);
    } else if (key == "window") {
        if (value.type == JsonValue::Type::String) {
            if (value.asString() != "inf")
                fail("window must be a number or \"inf\"");
            a.confidenceWindow = ApproximatorConfig::infiniteWindow;
        } else {
            a.confidenceWindow = value.asDouble();
        }
    } else if (key == "confInts") {
        a.confidenceForInts = boolField(key, value);
    } else if (key == "noConf") {
        a.confidenceDisabled = boolField(key, value);
    } else if (key == "ghb") {
        a.ghbEntries = u32Field(key, value);
    } else if (key == "lhb") {
        a.lhbEntries = u32Field(key, value);
    } else if (key == "tagBits") {
        a.tagBits = u32Field(key, value);
    } else if (key == "delay") {
        a.valueDelay = u32Field(key, value);
    } else if (key == "degree") {
        a.approxDegree = u32Field(key, value);
    } else if (key == "estimator") {
        a.estimator = estimatorFromName(value.asString());
    } else if (key == "proportional") {
        a.proportionalConfidence = boolField(key, value);
    } else if (key == "mantissaDrop") {
        a.mantissaDropBits = u32Field(key, value);
    } else {
        return false;
    }
    return true;
}

void
MachineConfig::validate() const
{
    if (name.empty())
        fail("name must be non-empty");
    // The directory tracks sharers in a 32-bit mask, so 32 cores is
    // the hard ceiling of the coherence model.
    if (cores == 0 || cores > 32)
        fail("cores must be in [1, 32]");
    if (core.width == 0 || core.robEntries == 0)
        fail("core.width and core.rob must be positive");

    validateCache("l1", l1);
    validateCache("phase1L1", phase1L1);
    validateCache("l2", l2);
    if (l1Latency == 0 || l2Latency == 0 || memLatency == 0)
        fail("latencies must be positive");
    if (l2Occupancy == 0 || memOccupancy == 0)
        fail("occupancies must be positive");

    if (noc.cols == 0 || noc.rows == 0 || noc.routerCycles == 0 ||
        noc.flitBytes == 0)
        fail("noc fields must be positive");
    if (slowNoc.cols == 0 || slowNoc.rows == 0 ||
        slowNoc.routerCycles == 0 || slowNoc.flitBytes == 0)
        fail("slowNoc fields must be positive");
    if (cores != noc.nodes())
        fail("cores (" + std::to_string(cores) +
             ") must equal noc nodes (" + std::to_string(noc.nodes()) +
             "): one core per mesh node");
    if (l2Banks != noc.nodes())
        fail("l2.banks (" + std::to_string(l2Banks) +
             ") must equal noc nodes (" + std::to_string(noc.nodes()) +
             "): one bank per mesh node");
    if (heteroNoc && slowNoc.nodes() != noc.nodes())
        fail("slowNoc must span the same nodes as noc");

    // Each bank caches its address-interleaved slice, so the slice
    // geometry must itself be a valid cache.
    if (l2.sizeBytes % l2Banks != 0)
        fail("l2.size must be a multiple of l2.banks");
    CacheConfig slice = l2;
    slice.sizeBytes = l2.sizeBytes / l2Banks;
    validateCache("l2 bank slice", slice);

    validateApprox("approx", approx);
    if (!coreApprox.empty()) {
        if (coreApprox.size() != cores)
            fail("coreApprox must carry one entry per core");
        for (std::size_t i = 0; i < coreApprox.size(); ++i)
            validateApprox("coreApprox[" + std::to_string(i) + "]",
                           coreApprox[i]);
    }
}

ApproxMemory::Config
MachineConfig::phase1Config(MemMode mode) const
{
    ApproxMemory::Config c;
    c.threads = cores;
    c.cache = phase1L1;
    c.mode = mode;
    c.approx = approx;
    // Variants only matter to the modes that build a mechanism; the
    // Precise projection stays canonical so golden-cache keys do not
    // fragment across variant sets.
    if (mode == MemMode::Lva || mode == MemMode::Lvp)
        c.threadApprox = coreApprox;
    return c;
}

ApproxMemory::Config
MachineConfig::phase1Lva() const
{
    return phase1Config(MemMode::Lva);
}

ApproxMemory::Config
MachineConfig::phase1Precise() const
{
    return phase1Config(MemMode::Precise);
}

FullSystemConfig
MachineConfig::fullSystem(bool lvaEnabled, u32 degree) const
{
    FullSystemConfig cfg;
    cfg.cores = cores;
    cfg.core = core;
    cfg.l1 = l1;
    cfg.l1Latency = l1Latency;
    cfg.l2 = l2;
    cfg.l2Latency = l2Latency;
    cfg.l2Banks = l2Banks;
    cfg.l2Occupancy = l2Occupancy;
    cfg.protocol = protocol;
    cfg.memLatency = memLatency;
    cfg.memOccupancy = memOccupancy;
    cfg.mesh = noc;
    cfg.heteroNoc = heteroNoc;
    cfg.slowMesh = slowNoc;
    cfg.backgroundFetchExtraLatency = backgroundFetchExtraLatency;
    cfg.lvaEnabled = lvaEnabled;
    if (lvaEnabled) {
        // Same override FullSystemConfig::lva applies: the requested
        // degree at a value delay of ~1 load (paper section VI-E).
        cfg.approx = approx;
        cfg.approx.approxDegree = degree;
        cfg.approx.valueDelay = 1;
        cfg.coreApprox = coreApprox;
        for (ApproximatorConfig &a : cfg.coreApprox) {
            a.approxDegree = degree;
            a.valueDelay = 1;
        }
    }
    return cfg;
}

const MachineConfig &
defaultMachine()
{
    static const MachineConfig machine = MachineConfig::table2();
    return machine;
}

void
applyMachineJson(MachineConfig &m, const JsonValue &v)
{
    if (!v.isObject())
        fail("description must be a JSON object");
    // Deferred past the main loop so the expansion sees the final
    // "cores" and "approx" values regardless of member order.
    const JsonValue *core_approx = nullptr;

    for (const auto &[key, value] : v.members) {
        if (key == "schema") {
            // checked by machineFromJson
        } else if (key == "name") {
            m.name = value.asString();
        } else if (key == "cores") {
            m.cores = u32Field(key, value);
        } else if (key == "core") {
            requireObject(key, value);
            for (const auto &[k2, v2] : value.members) {
                if (k2 == "width")
                    m.core.width = u32Field("core.width", v2);
                else if (k2 == "rob")
                    m.core.robEntries = u32Field("core.rob", v2);
                else
                    fail("core: unknown key \"" + k2 + "\"");
            }
        } else if (key == "l1") {
            parseCache(key, value, m.l1, &m.l1Latency);
        } else if (key == "phase1L1") {
            parseCache(key, value, m.phase1L1, nullptr);
        } else if (key == "l2") {
            requireObject(key, value);
            for (const auto &[k2, v2] : value.members) {
                if (k2 == "size")
                    m.l2.sizeBytes = v2.asU64();
                else if (k2 == "assoc")
                    m.l2.assoc = u32Field("l2.assoc", v2);
                else if (k2 == "block")
                    m.l2.blockBytes = u32Field("l2.block", v2);
                else if (k2 == "latency")
                    m.l2Latency = u32Field("l2.latency", v2);
                else if (k2 == "banks")
                    m.l2Banks = u32Field("l2.banks", v2);
                else if (k2 == "occupancy")
                    m.l2Occupancy = u32Field("l2.occupancy", v2);
                else
                    fail("l2: unknown key \"" + k2 + "\"");
            }
        } else if (key == "memory") {
            requireObject(key, value);
            for (const auto &[k2, v2] : value.members) {
                if (k2 == "latency")
                    m.memLatency = u32Field("memory.latency", v2);
                else if (k2 == "occupancy")
                    m.memOccupancy = u32Field("memory.occupancy", v2);
                else
                    fail("memory: unknown key \"" + k2 + "\"");
            }
        } else if (key == "noc") {
            parseMesh(key, value, m.noc);
        } else if (key == "protocol") {
            const std::string &p = value.asString();
            if (p == "msi")
                m.protocol = CoherenceProtocol::Msi;
            else if (p == "mesi")
                m.protocol = CoherenceProtocol::Mesi;
            else
                fail("unknown protocol \"" + p + "\"");
        } else if (key == "heteroNoc") {
            m.heteroNoc = boolField(key, value);
        } else if (key == "slowNoc") {
            parseMesh(key, value, m.slowNoc);
        } else if (key == "backgroundFetchExtraLatency") {
            m.backgroundFetchExtraLatency = u32Field(key, value);
        } else if (key == "approx") {
            parseApprox(key, value, m.approx);
        } else if (key == "coreApprox") {
            if (!value.isArray())
                fail("coreApprox must be a JSON array");
            core_approx = &value;
        } else {
            fail("unknown key \"" + key + "\"");
        }
    }

    if (core_approx != nullptr && !core_approx->items.empty()) {
        m.coreApprox.assign(m.cores, m.approx);
        std::vector<bool> seen(m.cores, false);
        for (const JsonValue &entry : core_approx->items) {
            requireObject("coreApprox[]", entry);
            const JsonValue *idx = entry.find("core");
            if (idx == nullptr)
                fail("coreApprox[]: missing \"core\"");
            const u32 c = u32Field("coreApprox.core", *idx);
            if (c >= m.cores)
                fail("coreApprox.core " + std::to_string(c) +
                     " out of range for " + std::to_string(m.cores) +
                     " cores");
            if (seen[c])
                fail("coreApprox: duplicate entry for core " +
                     std::to_string(c));
            seen[c] = true;
            for (const auto &[key, value] : entry.members) {
                if (key == "core")
                    continue;
                if (!applyApproxKey(m.coreApprox[c], key, value))
                    fail("coreApprox[]: unknown key \"" + key + "\"");
            }
        }
    }
}

MachineConfig
machineFromJson(const JsonValue &v)
{
    if (!v.isObject())
        fail("description must be a JSON object");
    const JsonValue *schema = v.find("schema");
    if (schema == nullptr)
        fail("missing \"schema\" (expected \"" +
             std::string(machineSchema()) + "\")");
    if (schema->asString() != machineSchema())
        fail("unsupported schema \"" + schema->asString() + "\"");

    MachineConfig m;
    m.name = "custom";
    applyMachineJson(m, v);
    m.validate();
    return m;
}

MachineConfig
machineFromFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("machine config " + path +
                                 ": cannot open");
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad())
        throw std::runtime_error("machine config " + path +
                                 ": read error");
    try {
        return machineFromJson(parseJson(text.str()));
    } catch (const std::exception &e) {
        throw std::runtime_error("machine config " + path + ": " +
                                 e.what());
    }
}

std::string
renderMachineJson(const MachineConfig &m)
{
    std::string out = "{\"schema\":\"" + std::string(machineSchema()) +
                      "\",\"name\":" + jsonQuote(m.name) +
                      ",\"cores\":" + std::to_string(m.cores) +
                      ",\"core\":{\"width\":" +
                      std::to_string(m.core.width) +
                      ",\"rob\":" + std::to_string(m.core.robEntries) +
                      "}";
    out += ",\"l1\":" + renderCache(m.l1, &m.l1Latency);
    out += ",\"phase1L1\":" + renderCache(m.phase1L1, nullptr);
    out += ",\"l2\":{\"size\":" + std::to_string(m.l2.sizeBytes) +
           ",\"assoc\":" + std::to_string(m.l2.assoc) +
           ",\"block\":" + std::to_string(m.l2.blockBytes) +
           ",\"latency\":" + std::to_string(m.l2Latency) +
           ",\"banks\":" + std::to_string(m.l2Banks) +
           ",\"occupancy\":" + std::to_string(m.l2Occupancy) + "}";
    out += ",\"memory\":{\"latency\":" + std::to_string(m.memLatency) +
           ",\"occupancy\":" + std::to_string(m.memOccupancy) + "}";
    out += ",\"noc\":" + renderMesh(m.noc);
    out += ",\"protocol\":\"";
    out += m.protocol == CoherenceProtocol::Msi ? "msi" : "mesi";
    out += "\",\"heteroNoc\":";
    out += m.heteroNoc ? "true" : "false";
    out += ",\"slowNoc\":" + renderMesh(m.slowNoc);
    out += ",\"backgroundFetchExtraLatency\":" +
           std::to_string(m.backgroundFetchExtraLatency);
    out += ",\"approx\":" + renderApprox(m.approx);
    if (!m.coreApprox.empty()) {
        out += ",\"coreApprox\":[";
        for (std::size_t i = 0; i < m.coreApprox.size(); ++i) {
            if (i > 0)
                out += ",";
            std::string entry = renderApprox(m.coreApprox[i]);
            // Splice "core": i in as the first member.
            out += "{\"core\":" + std::to_string(i) + "," +
                   entry.substr(1);
        }
        out += "]";
    }
    return out + "}";
}

const std::vector<std::string> &
machineSchemaKeys()
{
    static const std::vector<std::string> keys = {
        "schema",
        "name",
        "cores",
        "core.width",
        "core.rob",
        "l1.size",
        "l1.assoc",
        "l1.block",
        "l1.latency",
        "phase1L1.size",
        "phase1L1.assoc",
        "phase1L1.block",
        "l2.size",
        "l2.assoc",
        "l2.block",
        "l2.latency",
        "l2.banks",
        "l2.occupancy",
        "memory.latency",
        "memory.occupancy",
        "noc.cols",
        "noc.rows",
        "noc.routerCycles",
        "noc.flitBytes",
        "protocol",
        "heteroNoc",
        "slowNoc.cols",
        "slowNoc.rows",
        "slowNoc.routerCycles",
        "slowNoc.flitBytes",
        "backgroundFetchExtraLatency",
        "approx.table",
        "approx.tableAssoc",
        "approx.confidenceBits",
        "approx.window",
        "approx.confInts",
        "approx.noConf",
        "approx.ghb",
        "approx.lhb",
        "approx.tagBits",
        "approx.delay",
        "approx.degree",
        "approx.estimator",
        "approx.proportional",
        "approx.mantissaDrop",
        "coreApprox",
        "coreApprox.core",
    };
    return keys;
}

} // namespace lva
