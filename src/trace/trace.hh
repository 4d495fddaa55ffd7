/**
 * @file
 * The primitive-event trace collected during a full-speed profiling
 * run (paper Section 3.2).
 *
 * Each committed instruction yields one compact record carrying the
 * timestamps of its primitive events (dispatch, address calculation,
 * memory access, execute) and the dynamic sequence numbers of its
 * register-data producers. The front end runs at full speed, so the
 * offline analysis tool models fetch and commit through the dispatch
 * time; it materializes the paper's dependence DAG from these records
 * plus the machine configuration (functional dependences through
 * shared hardware and finite queues are reconstructed there).
 */

#ifndef MCD_TRACE_TRACE_HH
#define MCD_TRACE_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/inst.hh"

namespace mcd {

/**
 * Trace record for one committed instruction. Every field has a reader
 * in the offline tool; the 64-bit fields come first so the record packs
 * into 80 bytes.
 */
struct InstTrace
{
    std::uint64_t seq = 0;

    /** Register-data producers (dynamic seq; 0 = none). */
    std::uint64_t dep1 = 0;
    std::uint64_t dep2 = 0;

    // Event timestamps, absolute picoseconds.
    Tick dispatchTime = 0;
    Tick issueTime = 0;     //!< execute/addr-calc start
    Tick execDone = 0;      //!< execute/addr-calc result ready
    Tick memIssue = 0;      //!< memory access start (mem ops)
    Tick memDone = 0;       //!< memory access complete (mem ops)
    Tick memFixed = 0;      //!< main-memory (unscalable) latency part

    Opcode op = Opcode::NOP;

    /** This instruction was a mispredicted control transfer: fetch of
     *  everything younger waited for its resolution. */
    bool mispredicted = false;

    bool isMem() const { return opInfo(op).isMem(); }
    bool isLoadOp() const { return opInfo(op).isLoad(); }
};

/**
 * Records a profiling run reserves up front. Every workload at scale 1
 * commits fewer (the largest, treeadd, commits 172,026), so a
 * default-scale profiling run never regrows its trace, and the pages
 * it never writes cost no resident memory. test_trace runs every
 * registered workload to keep this bound honest.
 */
inline constexpr std::size_t traceReserveRecords = std::size_t{1} << 18;

/**
 * Accumulates InstTrace records during a profiling run. A run that
 * collects no trace has no collector: the pipeline's pointer is null.
 */
class TraceCollector
{
  public:
    void record(const InstTrace &t) { records.push_back(t); }

    const std::vector<InstTrace> &trace() const { return records; }

    /** Move the records out (the collector is left empty). Lets the
     *  experiment engine keep a profiling trace alive after the
     *  processor that produced it is destroyed, without a copy. */
    std::vector<InstTrace> take() { return std::move(records); }

    std::size_t size() const { return records.size(); }
    void reserve(std::size_t n) { records.reserve(n); }

  private:
    std::vector<InstTrace> records;
};

} // namespace mcd

#endif // MCD_TRACE_TRACE_HH
