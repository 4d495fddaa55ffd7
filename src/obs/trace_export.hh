/**
 * @file
 * Chrome-trace event export.
 *
 * Collects simulator events — frequency changes, PLL re-lock windows,
 * cross-domain synchronization stalls, controller decisions — and
 * writes them in the Chrome Trace Event JSON format, loadable in
 * chrome://tracing or https://ui.perfetto.dev. Simulated picoseconds
 * map onto the trace's microsecond axis; domains map onto threads;
 * each simulated run (one benchmark leg) maps onto a process, so a
 * merged matrix trace shows every leg side by side.
 *
 * Collection is single-threaded per exporter (one exporter per run
 * leg); merging across legs happens at write time in the caller's
 * thread, which keeps the layer race-free under the experiment
 * thread pool.
 */

#ifndef MCD_OBS_TRACE_EXPORT_HH
#define MCD_OBS_TRACE_EXPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"

namespace mcd {
namespace obs {

/** One Chrome trace event, still on the picosecond axis. */
struct TraceEvent
{
    char phase = 'i';       //!< 'X' complete, 'i' instant, 'C' counter
    int tid = 0;            //!< domain index
    Tick ts = 0;
    Tick dur = 0;           //!< 'X' only
    std::string name;
    std::string category;
    /**
     * Pre-rendered JSON object body for "args" (without braces),
     * e.g. "\"mhz\": 800", built with json::member. Empty = no args.
     */
    std::string args;
};

class TraceExporter
{
  public:
    explicit TraceExporter(bool enabled_ = false) : on(enabled_) {}

    bool enabled() const { return on; }

    /** A duration event ('X'). */
    void complete(std::string name, std::string category, int tid,
                  Tick start, Tick dur, std::string args = {});

    /** A zero-duration instant event ('i'). */
    void instant(std::string name, std::string category, int tid,
                 Tick ts, std::string args = {});

    /**
     * A counter series point ('C'). Chrome plots counters per
     * (process, name), so per-domain series carry the domain in the
     * name; @p series names the plotted value inside the event args.
     */
    void counter(std::string name, const char *series, int tid, Tick ts,
                 double value);

    const std::vector<TraceEvent> &events() const { return evts; }
    std::size_t size() const { return evts.size(); }

  private:
    bool on;
    std::vector<TraceEvent> evts;
};

/** One simulated run's contribution to a merged trace file. */
struct TraceProcess
{
    std::string name;               //!< e.g. "adpcm/online"
    const TraceExporter *trace = nullptr;
};

/**
 * Write a complete Chrome trace JSON document. Each process gets
 * pid = its index + 1, a process_name metadata record, and one named
 * thread per clock domain. Deterministic for a fixed input: no wall
 * clock, host pid, or pointer values are embedded.
 */
void writeChromeTrace(std::ostream &os,
                      const std::vector<TraceProcess> &processes);

} // namespace obs
} // namespace mcd

#endif // MCD_OBS_TRACE_EXPORT_HH
