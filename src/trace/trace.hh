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
#include <functional>
#include <utility>
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
 * The interval of @p length picoseconds that @p t dispatched in. An
 * interval of a trace is a run of consecutive records with one value
 * of this (see buildIntervalGraph in analysis/dep_graph.hh).
 */
inline Tick
intervalOf(const InstTrace &t, Tick length)
{
    return t.dispatchTime / length;
}

/**
 * One closed interval of a streamed profiling trace: a run of
 * consecutive records in one interval, followed by the
 * records that committed after it, as many as the sink's lookahead,
 * or fewer where the run ended.
 */
struct IntervalRecords
{
    std::size_t index = 0;          //!< position in the run's intervals
    std::size_t count = 0;          //!< leading records in the interval
    std::vector<InstTrace> records; //!< the interval's, then lookahead
};

/** Where a streaming profiling run hands its closed intervals. */
struct IntervalSink
{
    Tick length = 0;            //!< interval length, ps of dispatch time
    std::size_t lookahead = 0;  //!< records an interval waits for
    std::function<void(IntervalRecords)> take;
};

/**
 * Accumulates InstTrace records during a profiling run. A run that
 * collects no trace has no collector: the pipeline's pointer is null.
 *
 * By default the collector keeps the whole trace. Once stream() gives
 * it a sink, it keeps only the records of intervals still open: an
 * interval closes when a record of another interval and the sink's
 * lookahead of records past its end have both arrived, and goes to
 * the sink with them, in interval order. flush() closes the rest when
 * the run ends, with whatever lookahead the trace still had.
 */
class TraceCollector
{
  public:
    void
    record(const InstTrace &t)
    {
        records.push_back(t);
        if (sink.take)
            cut();
    }

    /** Stream the records to @p s from now on (before any record). */
    void stream(IntervalSink s) { sink = std::move(s); }
    bool streaming() const { return static_cast<bool>(sink.take); }

    /** The run ended: hand every interval still open to the sink. */
    void
    flush()
    {
        if (!sink.take)
            return;
        if (!records.empty())
            ends.push_back(records.size());
        while (!ends.empty())
            emit();
    }

    /** The records kept: the whole trace unless streaming. */
    const std::vector<InstTrace> &trace() const { return records; }

    /** Move the records out (the collector is left empty). Lets a
     *  caller keep a profiling trace alive after the processor that
     *  produced it is destroyed, without a copy. */
    std::vector<InstTrace> take() { return std::move(records); }

    std::size_t size() const { return records.size(); }
    void reserve(std::size_t n) { records.reserve(n); }

  private:
    /** A record arrived: note where its interval starts, and close
     *  the oldest interval once its lookahead is in. */
    void
    cut()
    {
        const Tick k = intervalOf(records.back(), sink.length);
        if (records.size() > 1 && k != openInterval)
            ends.push_back(records.size() - 1);
        openInterval = k;
        while (!ends.empty() &&
               ends.front() + sink.lookahead <= records.size())
            emit();
    }

    /** Hand the oldest interval, which starts at records[0], to the
     *  sink with the records after it; keep those records. */
    void
    emit()
    {
        const std::size_t end = ends.front();
        IntervalRecords iv;
        iv.index = emitted++;
        iv.count = end;
        std::vector<InstTrace> rest;
        rest.reserve(records.capacity());
        rest.assign(records.begin() + static_cast<std::ptrdiff_t>(end),
                    records.end());
        iv.records = std::exchange(records, std::move(rest));
        ends.erase(ends.begin());
        for (std::size_t &e : ends)
            e -= end;
        sink.take(std::move(iv));
    }

    std::vector<InstTrace> records;
    IntervalSink sink;
    /** Ends of the intervals whose last record is known, oldest
     *  first, as indices into records. */
    std::vector<std::size_t> ends;
    Tick openInterval = 0;  //!< interval of the newest record
    std::size_t emitted = 0;
};

} // namespace mcd

#endif // MCD_TRACE_TRACE_HH
