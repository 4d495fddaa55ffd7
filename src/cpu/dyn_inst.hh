/**
 * @file
 * The in-flight (dynamic) instruction record shared by all pipeline
 * structures, and its lifecycle timestamps. Timestamps double as the
 * primitive-event trace consumed by the offline analysis tool.
 *
 * The record is split hot/cold: DynInst keeps only the fields the
 * timing loops read per cycle (status bits, physical registers, the
 * completion timestamps), while fields written once and read only at
 * trace-record time (dependence seqs, issue-side timestamps) live in
 * a parallel DynInstCold record owned by the InstWindow arena. The
 * issue-queue and LSQ scans walk roughly half the bytes per
 * instruction as a result.
 *
 * Every field has a reader; a field nothing reads costs a write per
 * fetched instruction and window bytes for nothing.
 */

#ifndef MCD_CPU_DYN_INST_HH
#define MCD_CPU_DYN_INST_HH

#include <cstdint>

#include "common/types.hh"
#include "isa/inst.hh"

namespace mcd {

/** Sentinel for "no physical register". */
inline constexpr int noReg = -1;

/**
 * Cold half of one in-flight instruction: producer links and
 * timestamps read only when the trace record is emitted at commit.
 * Allocated alongside the DynInst in the InstWindow.
 */
struct DynInstCold
{
    std::uint64_t src1Producer = 0; //!< seq of producing inst (0 = none)
    std::uint64_t src2Producer = 0;

    Tick issueTime = 0;
    Tick memIssueTime = 0;
    Tick memFixedLat = 0;           //!< DRAM (unscalable) part of latency
};

/** One in-flight instruction (hot half). */
struct DynInst
{
    std::uint64_t seq = 0;      //!< dynamic instruction number
    Inst inst;
    std::uint64_t memAddr = 0;

    // Branch prediction state.
    bool mispredicted = false;

    // Pipeline status.
    bool issued = false;        //!< execute (or addr-gen) issued
    bool executed = false;      //!< execute event finished
    bool memIssued = false;
    bool memDone = false;

    // Rename state.
    int destPhys = noReg;
    int oldDestPhys = noReg;    //!< freed at commit
    RegFile dest = RegFile::None;
    int src1Phys = noReg;       //!< noReg when no (live) source
    int src2Phys = noReg;
    bool src1Fp = false;        //!< src1 lives in the FP register file
    bool src2Fp = false;

    // Timestamps the pipeline re-reads (absolute picoseconds).
    Tick fetchTime = 0;         //!< entered the fetch queue
    Tick dispatchTime = 0;      //!< renamed + dispatched
    Tick execDoneTime = 0;      //!< ALU / addr-gen result ready
    Tick memDoneTime = 0;       //!< cache access complete

    /** Trace-only fields; points into the InstWindow's cold array. */
    DynInstCold *cold = nullptr;

    bool isLoadOp() const { return opInfo(inst.op).isLoad(); }
    bool isStoreOp() const { return opInfo(inst.op).isStore(); }
    bool isMemOp() const { return opInfo(inst.op).isMem(); }

    /** The time at which this instruction is ready to retire, and the
     *  domain that produced that signal. */
    Tick
    completionTime() const
    {
        if (isMemOp())
            return memDoneTime;
        return execDoneTime;
    }

    Domain completionDomain() const { return opInfo(inst.op).doneDomain; }
};

} // namespace mcd

#endif // MCD_CPU_DYN_INST_HH
