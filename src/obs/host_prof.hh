/**
 * @file
 * Host-side run profiler: where does the *host* process spend wall
 * time and memory while driving an experiment matrix?
 *
 * The simulator's own telemetry (obs/telemetry.hh) measures simulated
 * time; nothing so far measured the machine running it beyond one
 * micro_speed number. The HostProfiler records scoped phases
 * (validate, per-leg simulate, cache read/write, the shake and
 * schedule analysis, global-search probes) as slices, and every
 * host-time figure it reports
 * is read from those slices:
 *
 *  - a slice's *self* time is its wall time minus the slices nested
 *    inside it on the same thread (a task a helping wait runs inside
 *    a leg is nested in that leg), so self times never overlap and
 *    their sum fits in the profiled window times the thread count;
 *  - a slice's *CPU* time is the CPU time its thread spent between
 *    its open and close (CLOCK_THREAD_CPUTIME_ID, read once at each),
 *    minus that of the slices nested inside it: self time counts a
 *    descheduled thread's wait, CPU time does not, so the two apart
 *    tell a host stall from work;
 *  - a leg's wall time and peak RSS are its `simulate` slice's
 *    duration and the process peak RSS when that slice closed;
 *  - the "pool" figures are the lanes (threads that recorded
 *    slices), the window from the first slice's start to the last
 *    one's end, and the summed self time, so self/(wall × lanes) is
 *    the host's busy share.
 *
 * Both views print one Snapshot, taken once under the lock, so they
 * agree: publish() merges deterministically ordered host.* stats into
 * the matrix stats JSON (keys are stable across job counts; the
 * measured values naturally are not), and writeProfile() writes a
 * standalone Chrome trace (MCD_PROF_OUT) with one "host" process, one
 * thread lane per host thread, inclusive slice durations, and a
 * machine-readable "host" summary object.
 *
 * Unlike the per-run Telemetry, host phases run concurrently on pool
 * threads, so this is the one obs component that locks. It is a
 * process-wide singleton, disabled (and cheap: one relaxed atomic
 * load per scope) unless runMatrix arms it from MCD_PROF_OUT.
 */

#ifndef MCD_OBS_HOST_PROF_HH
#define MCD_OBS_HOST_PROF_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/stats_registry.hh"

namespace mcd {
namespace obs {

class HostProfiler
{
  public:
    /** The process-wide profiler. */
    static HostProfiler &instance();

    /**
     * Drop all recorded data and arm (or disarm) collection. The call
     * also restarts the trace epoch: slice timestamps are relative to
     * the most recent reset.
     */
    void reset(bool enable);

    bool
    enabled() const
    {
        return on.load(std::memory_order_relaxed);
    }

    /**
     * One recorded phase, closed when the Scope dies. Default-built
     * or moved-from Scopes record nothing, as does any Scope taken
     * while the profiler is disabled. Scopes nest: a Scope must close
     * on the thread that opened it, after every Scope opened inside
     * it on that thread (RAII gives both).
     */
    class Scope
    {
      public:
        Scope() = default;
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        Scope(Scope &&o) noexcept { *this = std::move(o); }
        Scope &
        operator=(Scope &&o) noexcept
        {
            close();
            prof = o.prof;
            o.prof = nullptr;
            kind = std::move(o.kind);
            detail = std::move(o.detail);
            start = o.start;
            cpuStart = o.cpuStart;
            depth = o.depth;
            return *this;
        }
        ~Scope() { close(); }

        /** Replace the detail, for a slice labelled by its outcome. */
        void relabel(std::string d) { detail = std::move(d); }

      private:
        friend class HostProfiler;
        void close();

        HostProfiler *prof = nullptr;
        std::string kind;
        std::string detail;
        std::chrono::steady_clock::time_point start;
        std::int64_t cpuStart = 0;  //!< thread CPU ns at open
        std::size_t depth = 0;  //!< open Scopes below it on its thread
    };

    /**
     * Open a phase of @p kind ("validate", "simulate", "cache.read",
     * "cache.write", "analyze", "depgraph", "shake", "probe") with an
     * optional free-form @p detail (the leg site for "simulate", the
     * site and table frequency for a global leg's "probe", the
     * benchmark and interval for "depgraph" and "shake", else
     * typically the
     * benchmark or the analyzed site).
     */
    Scope phase(std::string kind, std::string detail = {});

    /** Process peak RSS in KiB (getrusage), 0 where unsupported. */
    static std::uint64_t peakRssKb();

    /** The calling thread's CPU time in ns, 0 where unsupported. */
    static std::int64_t threadCpuNs();

    struct Slice
    {
        std::string kind;
        std::string detail;
        int lane;
        std::int64_t startNs;   //!< since the last reset()
        std::int64_t durNs;     //!< inclusive
        std::int64_t selfNs;    //!< minus the slices nested inside
        std::int64_t cpuNs;     //!< thread CPU time, nested slices' out
        std::uint64_t rssKb;    //!< process peak RSS at close
    };

    struct Snapshot;
    /** The recorded slices and their aggregates, as of now. */
    Snapshot snapshot() const;

  private:
    HostProfiler() = default;

    void record(Slice s);
    int laneOf(std::thread::id id);

    std::atomic<bool> on{false};
    mutable std::mutex mtx;
    std::chrono::steady_clock::time_point epoch;
    std::map<std::thread::id, int> lanes;
    std::vector<Slice> slices;
};

/**
 * One reading of the profiler, printed by both views. Every figure in
 * it is read from the slices, except the process peak RSS, which is
 * read when the snapshot is taken.
 */
struct HostProfiler::Snapshot
{
    struct Phase
    {
        std::uint64_t count = 0;
        std::int64_t selfNs = 0;
        std::int64_t cpuNs = 0;
        std::int64_t maxNs = 0;
    };

    std::vector<Slice> slices;  //!< by start time, then lane
    // std::map iteration gives the name-sorted, job-count-independent
    // key order the merged stats JSON requires.
    std::map<std::string, Phase> phases;
    /** Leg site → its simulate slice (the latest, if run twice). */
    std::map<std::string, Slice> legs;
    std::size_t lanes = 0;      //!< threads that recorded slices
    std::int64_t wallNs = 0;    //!< first slice start to last end
    std::int64_t selfNs = 0;    //!< summed over every slice
    std::uint64_t peakRssKb = 0;

    /**
     * Merge aggregated host.* stats into @p reg: per-kind phase
     * count, self time, CPU time and longest phase, per-leg wall time and peak
     * RSS, the pool lanes/window/self time, and the peak RSS. Key set
     * and order depend only on the recorded names.
     */
    void publish(StatsRegistry &reg) const;

    /** Write the standalone Chrome-trace profile (MCD_PROF_OUT). */
    void writeProfile(std::ostream &os) const;
};

} // namespace obs
} // namespace mcd

#endif // MCD_OBS_HOST_PROF_HH
