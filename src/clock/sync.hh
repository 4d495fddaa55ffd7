/**
 * @file
 * Inter-domain synchronization: the T_s visibility rule and the
 * port, signal and credit primitives used at every clock-domain
 * boundary.
 *
 * Following Sjogren & Myers' arbitration circuits as adopted by the
 * paper (Section 2.2): a value written in the source domain at time
 * t_w can be latched at a destination clock edge t_e only if
 * t_e - t_w >= T_s, where T_s is 30% of the period of the highest
 * frequency (0.3 ns at 1 GHz). If the edge arrives too soon, the value
 * is seen one destination cycle later. Within a single domain the rule
 * degenerates to ordinary pipelining: visible at any strictly later
 * edge. This is how the *baseline* (singly clocked) configuration
 * naturally loses all synchronization overhead.
 */

#ifndef MCD_CLOCK_SYNC_HH
#define MCD_CLOCK_SYNC_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/ring_buffer.hh"
#include "common/types.hh"

namespace mcd {

/** Paper value: T_s as a fraction of the fastest clock period. */
inline constexpr double defaultSyncFraction = 0.3;

/**
 * The synchronization rule shared by all boundary crossings.
 */
class SyncRule
{
  public:
    /** Default: same-domain (no synchronization cost). */
    SyncRule() : crossDomain(false), syncTime(0) {}

    /**
     * @param cross_domain false collapses the rule to plain next-edge
     *        visibility (singly clocked configuration)
     * @param sync_time_ps T_s in picoseconds
     */
    SyncRule(bool cross_domain, double sync_time_ps)
        : crossDomain(cross_domain),
          syncTime(static_cast<Tick>(sync_time_ps))
    {}

    /** Build the paper's default rule for a given max frequency. */
    static SyncRule
    forMaxFrequency(bool cross_domain, Hertz f_max,
                    double fraction = defaultSyncFraction)
    {
        return SyncRule(cross_domain, fraction * periodPs(f_max));
    }

    /** Can a value written at @p wrote be consumed at edge @p edge? */
    bool
    visible(Tick wrote, Tick edge) const
    {
        if (edge <= wrote)
            return false;
        if (!crossDomain)
            return true;
        return edge - wrote >= syncTime;
    }

    /** Earliest time at which a consumer edge may observe the value. */
    Tick
    earliestVisible(Tick wrote) const
    {
        return crossDomain ? wrote + syncTime : wrote + 1;
    }

    bool isCrossDomain() const { return crossDomain; }
    Tick syncTimePs() const { return syncTime; }

  private:
    bool crossDomain;
    Tick syncTime;
};

/**
 * A hardware queue crossing a domain boundary: the producer writes
 * entries stamped with its edge time, the consumer — at its own edges
 * — may act only on entries the SyncRule makes visible, and every
 * blocked probe is counted at the port so synchronization-stall
 * statistics fall out of the boundary layer instead of being
 * hand-threaded through stage code.
 *
 * SyncPort exposes indexed consumer-side access because the hardware
 * structures it models scan out of order: issue queues pick any ready
 * entry, and the LSQ walks with store-forwarding look-back. The
 * sequence container is a template parameter so each structure keeps
 * the layout its scan pattern wants (vector + erase-compaction for the
 * issue queues, deque + head-pop for the LSQ).
 */
template <typename T, template <typename...> class Seq = std::vector>
class SyncPort
{
  public:
    struct Entry
    {
        T value;
        Tick wrote;     //!< producer edge time of the write
    };

    explicit SyncPort(SyncRule rule_ = SyncRule()) : rule(rule_) {}

    void setRule(SyncRule rule_) { rule = rule_; }
    const SyncRule &syncRule() const { return rule; }

    /** Producer side: enqueue @p value at producer edge @p wrote. */
    void push(T value, Tick wrote) { q.push_back({value, wrote}); }

    /** Pre-size the backing container (bounded hardware queues). */
    void reserve(std::size_t n) { q.reserve(n); }

    /** Backing-container reallocations (RingDeque-backed ports). */
    std::uint64_t containerGrows() const { return q.grows(); }

    std::size_t size() const { return q.size(); }
    bool empty() const { return q.empty(); }

    Entry &operator[](std::size_t i) { return q[i]; }
    const Entry &operator[](std::size_t i) const { return q[i]; }

    Entry &front() { return q.front(); }
    const Entry &front() const { return q.front(); }

    /**
     * Consumer side: may @p e be acted on at consumer edge @p now?
     * A blocked probe (entry present but not yet synchronized) is
     * counted; the consumer decides whether to skip the entry or
     * stall the whole scan.
     */
    bool
    probe(const Entry &e, Tick now)
    {
        if (rule.visible(e.wrote, now))
            return true;
        ++waitCount;
        return false;
    }

    /** Consumer dequeues the head (deque-backed ports). */
    void popFront() { q.pop_front(); }

    /** Drop every entry satisfying @p pred (vector-backed ports). */
    template <typename Pred>
    void
    eraseIf(Pred pred)
    {
        q.erase(std::remove_if(q.begin(), q.end(), pred), q.end());
    }

    auto begin() { return q.begin(); }
    auto end() { return q.end(); }
    auto begin() const { return q.begin(); }
    auto end() const { return q.end(); }

    /** Blocked probes accumulated at this boundary. */
    std::uint64_t waits() const { return waitCount; }

  private:
    SyncRule rule;
    Seq<Entry> q;
    std::uint64_t waitCount = 0;
};

/**
 * A single cross-domain ready signal (e.g. the generated address an
 * LSQ entry waits for from the integer domain): asserted at a source
 * edge time, consumable once the SyncRule admits it. Probes of an
 * asserted-but-not-yet-visible signal are counted; probes of an
 * unasserted signal are not (there is nothing in flight to wait on).
 */
class SyncSignal
{
  public:
    explicit SyncSignal(SyncRule rule_ = SyncRule()) : rule(rule_) {}

    void setRule(SyncRule rule_) { rule = rule_; }
    const SyncRule &syncRule() const { return rule; }

    bool
    probe(bool asserted, Tick wrote, Tick now)
    {
        if (!asserted)
            return false;
        if (rule.visible(wrote, now))
            return true;
        ++waitCount;
        return false;
    }

    std::uint64_t waits() const { return waitCount; }

  private:
    SyncRule rule;
    std::uint64_t waitCount = 0;
};

/**
 * The many-source completion bus into one consumer domain: signals
 * tagged with their producing domain, each crossing under that
 * (source, consumer) pair's rule. The ROB's commit gate is the
 * canonical instance (any back-end domain -> front end); probeQuiet
 * serves probes that must not count as stalls (the fetch stage
 * watching a mispredicted branch resolve is a spectator, not a
 * stalled consumer).
 */
class SyncSignalGate
{
  public:
    SyncSignalGate() = default;

    void
    setRule(Domain from, SyncRule rule_)
    {
        rules[domainIndex(from)] = rule_;
    }

    const SyncRule &rule(Domain from) const
    { return rules[domainIndex(from)]; }

    /** Counting probe: a blocked signal stalls the consumer. */
    bool
    probe(Domain from, Tick wrote, Tick now)
    {
        if (rules[domainIndex(from)].visible(wrote, now))
            return true;
        ++waitCount;
        return false;
    }

    /** Non-counting probe for spectators. */
    bool
    probeQuiet(Domain from, Tick wrote, Tick now) const
    {
        return rules[domainIndex(from)].visible(wrote, now);
    }

    std::uint64_t waits() const { return waitCount; }

  private:
    std::array<SyncRule, numDomains> rules{};
    std::uint64_t waitCount = 0;
};

/**
 * A saturating credit counter whose returns cross a domain boundary.
 *
 * Models the paper's conservative full-flag generation: the producer
 * (front end) only dispatches against credits, and a credit freed in
 * the consumer domain becomes usable only after synchronization.
 */
class CreditReturnChannel
{
  public:
    CreditReturnChannel(SyncRule rule_, int initial_credits)
        : rule(rule_), available(initial_credits)
    {}

    void setRule(SyncRule rule_) { rule = rule_; }

    /** Pre-size the in-flight ring (at most initial_credits deep). */
    void reserve(std::size_t n) { inFlight.reserve(n); }

    /** In-flight ring reallocations (0 when reserved correctly). */
    std::uint64_t grows() const { return inFlight.grows(); }

    /** Credits usable by the producer at its edge @p edge. */
    int
    credits(Tick edge)
    {
        drain(edge);
        return available;
    }

    /** Producer consumes one credit. */
    void
    take()
    {
        --available;
    }

    /** Consumer frees one credit at its edge time @p freed. */
    void
    give(Tick freed)
    {
        inFlight.push_back(freed);
    }

  private:
    void
    drain(Tick edge)
    {
        while (!inFlight.empty() && rule.visible(inFlight.front(), edge)) {
            inFlight.pop_front();
            ++available;
        }
    }

    SyncRule rule;
    int available;
    RingDeque<Tick> inFlight;
};

} // namespace mcd

#endif // MCD_CLOCK_SYNC_HH
