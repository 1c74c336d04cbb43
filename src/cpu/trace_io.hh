/**
 * @file
 * Binary serialization of full-system traces, so workload recording
 * (expensive, functional) and timing replay (cheap, repeated) can be
 * decoupled across processes and machines.
 *
 * Format (little-endian, version 1):
 *   8-byte magic "LVATRC1\n"
 *   u32 thread count
 *   per thread: u64 event count, then events as packed records:
 *     u64 addr, u64 value bits, u32 pc, u32 instrBefore,
 *     u8 value kind, u8 flags (bit0 isLoad, bit1 approximable,
 *                              bit2 dependsOnPrev), 6 pad bytes
 *   Flag bits 3-7 are zero and addresses fit 56 bits (what a
 *   ThreadTrace can hold); readTraces rejects any other record as
 *   corrupt.
 */

#ifndef LVA_CPU_TRACE_IO_HH
#define LVA_CPU_TRACE_IO_HH

#include <string>
#include <vector>

#include "cpu/trace.hh"

namespace lva {

/** Write @p traces to @p path; fatal on I/O errors. */
void writeTraces(const std::vector<ThreadTrace> &traces,
                 const std::string &path);

/** Read traces from @p path; fatal on missing/corrupt files. */
std::vector<ThreadTrace> readTraces(const std::string &path);

} // namespace lva

#endif // LVA_CPU_TRACE_IO_HH
