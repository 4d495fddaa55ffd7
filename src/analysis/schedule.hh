/**
 * @file
 * The reconfiguration schedule: the offline tool's output (the "log
 * file" of paper Section 3.2) listing the times at which each domain
 * should request a new frequency/voltage, consumed by the simulator
 * during the second, dynamic-scaling run.
 */

#ifndef MCD_ANALYSIS_SCHEDULE_HH
#define MCD_ANALYSIS_SCHEDULE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace mcd {

/** One scheduled reconfiguration request. */
struct ReconfigEntry
{
    Tick when = 0;          //!< time to *initiate* the change
    Domain domain = Domain::Integer;
    Hertz frequency = 0.0;  //!< target operating frequency
};

/**
 * A time-sorted reconfiguration schedule.
 */
class ReconfigSchedule
{
  public:
    void
    add(Tick when, Domain d, Hertz f)
    {
        entries.push_back({when, d, f});
    }

    /** Sort by time (stable w.r.t. domain order). */
    void finalize();

    const std::vector<ReconfigEntry> &all() const { return entries; }
    std::size_t size() const { return entries.size(); }
    bool empty() const { return entries.empty(); }

    /** Number of entries for one domain. */
    std::size_t countFor(Domain d) const;

    /** Serialize to the paper-style log text (one line per entry). */
    std::string toText() const;

  private:
    std::vector<ReconfigEntry> entries;
};

} // namespace mcd

#endif // MCD_ANALYSIS_SCHEDULE_HH
