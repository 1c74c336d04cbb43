/**
 * @file
 * Config-driven machine topology (lva-machine-v1).
 *
 * One validated MachineConfig object describes the whole CMP — core
 * count and width, per-level cache geometry, L2 banking, NoC shape,
 * coherence protocol, and the approximator configuration (optionally
 * per core) — parsed from a JSON file via the util/checkpoint
 * JsonValue reader with strict rejection of unknown keys,
 * out-of-range values and inconsistent geometry. One binary can then
 * instantiate arbitrary CMPs from config files, and sweeps can range
 * over *topology* instead of only approximator knobs.
 *
 * The all-defaults object is the named built-in "table2" machine
 * (paper Table II): its phase-1 projection equals
 * Evaluator::baselineLva()/preciseConfig() and its full-system
 * projection equals FullSystemConfig::baseline()/lva(d) exactly, so
 * exports under the default machine stay byte-identical to the
 * pre-config-file hardcoded paths (pinned by machine_config_test and
 * refactor_identity_test).
 *
 * The schema is documented key-by-key in docs/topology.md, whose
 * marker-delimited table scripts/check_docs.sh diffs two-way against
 * machineSchemaKeys(); adding a key here without a docs row (or vice
 * versa) fails the build gate.
 */

#ifndef LVA_SIM_MACHINE_CONFIG_HH
#define LVA_SIM_MACHINE_CONFIG_HH

#include <string>
#include <vector>

#include "core/approx_memory.hh"
#include "sim/config.hh"
#include "util/checkpoint.hh"

namespace lva {

/** The machine-config file schema tag ("lva-machine-v1"). */
const char *machineSchema();

/**
 * A complete, validated CMP description. Field defaults reproduce the
 * paper's Table II machine ("table2"); validate() enforces every
 * geometry invariant listed in docs/topology.md.
 */
struct MachineConfig
{
    std::string name = "table2"; ///< display/context name

    u32 cores = 4; ///< one core per NoC node (max 32: sharer bitmask)
    CoreConfig core{}; ///< issue width, ROB entries

    CacheConfig l1 = CacheConfig::fullSystemL1(); ///< phase-2 private L1
    u32 l1Latency = 1;

    /** Phase-1 (Pin-methodology) private L1, one per thread. */
    CacheConfig phase1L1 = CacheConfig::pinL1();

    CacheConfig l2{512 * 1024, 16, 64}; ///< shared, bank-distributed
    u32 l2Latency = 6;
    u32 l2Banks = 4; ///< one bank per NoC node
    u32 l2Occupancy = 1;

    CoherenceProtocol protocol = CoherenceProtocol::Msi;

    u32 memLatency = 160;
    u32 memOccupancy = 8;

    MeshConfig noc{}; ///< cols x rows; nodes() == cores == l2Banks
    bool heteroNoc = false;
    MeshConfig slowNoc{2, 2, /*routerCycles=*/6, /*flitBytes=*/8};
    u32 backgroundFetchExtraLatency = 0;

    /** Approximator configuration shared by every core. */
    ApproximatorConfig approx{};

    /**
     * Per-core approximator variants: empty = homogeneous (every core
     * uses approx); otherwise exactly one entry per core, expanded at
     * parse time from the "coreApprox" override list.
     */
    std::vector<ApproximatorConfig> coreApprox;

    /** The built-in paper Table II machine (all defaults). */
    static MachineConfig table2() { return {}; }

    /**
     * Throw std::runtime_error on any invalid or inconsistent field:
     * zero/excessive core counts, cores vs NoC-node or L2-bank
     * mismatch, non-power-of-two set counts (including the per-bank
     * L2 slice), table associativity not dividing the table size, a
     * coreApprox list whose length is not the core count, and so on.
     */
    void validate() const;

    /**
     * Phase-1 projection: the per-thread ApproxMemory configuration
     * of this machine (threads = cores, cache = phase1L1) under
     * @p mode. Per-core approximator variants carry over as
     * threadApprox for the mechanism modes; the Precise projection is
     * canonical (no variants) so golden-cache keys stay stable.
     */
    ApproxMemory::Config phase1Config(MemMode mode) const;

    /** phase1Config(MemMode::Lva): the machine's baseline LVA config. */
    ApproxMemory::Config phase1Lva() const;

    /** phase1Config(MemMode::Precise): the machine's golden config. */
    ApproxMemory::Config phase1Precise() const;

    /**
     * Phase-2 projection: the full-system timing model of this
     * machine. With @p lvaEnabled the approximator runs at
     * @p degree with a value delay of 1 load, exactly like
     * FullSystemConfig::lva (paper section VI-E observes ~1 in
     * full-system runs); per-core variants carry over with the same
     * degree/delay override applied.
     */
    FullSystemConfig fullSystem(bool lvaEnabled, u32 degree = 0) const;
};

/** The shared built-in default machine (Table II). */
const MachineConfig &defaultMachine();

/**
 * Parse and validate one machine description. @p v must be a JSON
 * object carrying "schema": "lva-machine-v1"; unknown keys, type
 * mismatches, out-of-range values and geometry inconsistencies all
 * throw std::runtime_error with the offending key named.
 */
MachineConfig machineFromJson(const JsonValue &v);

/**
 * Apply the lva-machine-v1 members of object @p v onto @p m key by
 * key ("schema" is skipped), leaving every other field as it is. No
 * validate(): machineFromJson validates the machine it builds, and a
 * full-system figure axis (eval/figure) replays its edit of an
 * already loaded machine as given.
 */
void applyMachineJson(MachineConfig &m, const JsonValue &v);

/** machineFromJson over the contents of @p path (throws on I/O or
 *  parse errors, with the path in the message). */
MachineConfig machineFromFile(const std::string &path);

/**
 * Canonical compact-JSON rendering of @p m: every schema key in a
 * fixed order, so equal machines render byte-identically. Feeds the
 * coordinator's scatter requests, checkpoint context keys, and the
 * round-trip property machineFromJson(parse(render(m))) == m.
 */
std::string renderMachineJson(const MachineConfig &m);

/**
 * The flat (dotted) key list of the machine schema, in schema
 * (docs-table) order — the
 * source of truth behind `lva_stats_catalog --machine-schema` and the
 * docs/topology.md table gate.
 */
const std::vector<std::string> &machineSchemaKeys();

/**
 * Apply one approximator-config key ("table", "window", "estimator",
 * ...) to @p a; returns false when @p key is not an approximator key
 * (caller decides whether that is an error). Shared between the
 * machine parser and the lva-rpc-v1 "config" parser so both speak the
 * same key names; throws on a malformed value.
 */
bool applyApproxKey(ApproximatorConfig &a, const std::string &key,
                    const JsonValue &value);

} // namespace lva

#endif // LVA_SIM_MACHINE_CONFIG_HH
