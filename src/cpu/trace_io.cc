#include "cpu/trace_io.hh"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/logging.hh"

namespace lva {

namespace {

constexpr char magic[8] = {'L', 'V', 'A', 'T', 'R', 'C', '1', '\n'};

/** On-disk event record (packed, fixed layout). */
struct PackedEvent
{
    u64 addr;
    u64 valueBits;
    u32 pc;
    u32 instrBefore;
    u8 kind;
    u8 flags;
    u8 pad[6];
};
static_assert(sizeof(PackedEvent) == 32, "packed layout drifted");

template <typename T>
void
writePod(std::ofstream &out, const T &v)
{
    out.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
T
readPod(std::ifstream &in, const std::string &path)
{
    T v;
    in.read(reinterpret_cast<char *>(&v), sizeof(T));
    if (!in)
        lva_fatal("trace file '%s' is truncated", path.c_str());
    return v;
}

Value
valueFrom(u8 kind, u64 bits)
{
    if (kind > static_cast<u8>(ValueKind::Float64))
        lva_fatal("trace contains unknown value kind %u", kind);
    const auto k = static_cast<ValueKind>(kind);
    // A Float32 is its low half (writeTraces zero-extends it).
    return Value::fromBits(k, k == ValueKind::Float32
                                  ? static_cast<u32>(bits)
                                  : bits);
}

} // namespace

void
writeTraces(const std::vector<ThreadTrace> &traces,
            const std::string &path)
{
    const std::filesystem::path p(path);
    if (p.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(p.parent_path(), ec);
    }
    std::ofstream out(path, std::ios::binary);
    if (!out)
        lva_fatal("cannot open '%s' for writing", path.c_str());

    out.write(magic, sizeof(magic));
    writePod(out, static_cast<u32>(traces.size()));
    for (const auto &trace : traces) {
        writePod(out, static_cast<u64>(trace.size()));
        for (const TraceEvent &ev : trace) {
            PackedEvent rec{};
            rec.addr = ev.addr;
            rec.valueBits = ev.value.bits();
            rec.pc = ev.pc;
            rec.instrBefore = ev.instrBefore;
            rec.kind = static_cast<u8>(ev.value.kind());
            rec.flags = static_cast<u8>((ev.isLoad ? 1 : 0) |
                                        (ev.approximable ? 2 : 0) |
                                        (ev.dependsOnPrev ? 4 : 0));
            writePod(out, rec);
        }
    }
    if (!out)
        lva_fatal("write to '%s' failed", path.c_str());
}

std::vector<ThreadTrace>
readTraces(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        lva_fatal("cannot open trace file '%s'", path.c_str());

    char got[8];
    in.read(got, sizeof(got));
    if (!in || std::memcmp(got, magic, sizeof(magic)) != 0)
        lva_fatal("'%s' is not an LVA trace file", path.c_str());

    const u32 threads = readPod<u32>(in, path);
    if (threads == 0 || threads > 1024)
        lva_fatal("trace file '%s' has bad thread count %u",
                  path.c_str(), threads);

    std::vector<ThreadTrace> traces(threads);
    for (auto &trace : traces) {
        // The count comes from the file: grow while reading rather
        // than trusting it for an up-front allocation, so a short file
        // claiming a huge count fails as truncated.
        const u64 count = readPod<u64>(in, path);
        for (u64 i = 0; i < count; ++i) {
            const auto rec = readPod<PackedEvent>(in, path);
            if (rec.flags > 7 || rec.addr > ThreadTrace::maxAddr)
                lva_fatal("trace file '%s' is corrupt: event %llu has "
                          "flags %#x and address %#llx (flags use bits "
                          "0-2, addresses 56 bits)",
                          path.c_str(), static_cast<unsigned long long>(i),
                          rec.flags,
                          static_cast<unsigned long long>(rec.addr));
            TraceEvent ev;
            ev.addr = rec.addr;
            ev.value = valueFrom(rec.kind, rec.valueBits);
            ev.pc = rec.pc;
            ev.instrBefore = rec.instrBefore;
            ev.isLoad = (rec.flags & 1) != 0;
            ev.approximable = (rec.flags & 2) != 0;
            ev.dependsOnPrev = (rec.flags & 4) != 0;
            trace.push_back(ev);
        }
    }
    return traces;
}

} // namespace lva
