/**
 * @file
 * The simulator's stats registry: named, hierarchically grouped
 * counters, gauges, and histograms.
 *
 * Components register stats once (at construction or attach time) and
 * keep the returned reference; the hot-loop cost of an update is one
 * integer add. Names are dotted paths ("clock.int.freq_changes",
 * "pipeline.sync.commit_stalls"), so consumers can iterate a whole
 * group with withPrefix() without the registry imposing a tree
 * structure on the producers.
 *
 * One registry belongs to one simulated run (one thread); per-leg
 * registries from a parallel experiment matrix are combined with
 * merge(), which is how the PR 1 thread pool stays race-free: no stat
 * is ever shared across threads.
 */

#ifndef MCD_OBS_STATS_REGISTRY_HH
#define MCD_OBS_STATS_REGISTRY_HH

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/json_writer.hh"
#include "common/stats.hh"

namespace mcd {
namespace obs {

/** Monotonically increasing event count. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { val += n; }
    std::uint64_t value() const { return val; }

  private:
    std::uint64_t val = 0;
};

/** Last-value instantaneous measurement. */
class Gauge
{
  public:
    void set(double v) { val = v; }
    void add(double v) { val += v; }
    double value() const { return val; }

  private:
    double val = 0.0;
};

/**
 * A fixed-bucket histogram: explicit ascending upper bounds plus an
 * implicit overflow bucket, with a RunningStat summary of the raw
 * series. Bucket i counts values v with v <= upperBound(i) (and
 * v > upperBound(i-1) for i > 0); the last bucket catches everything
 * above the largest bound.
 */
class Histogram
{
  public:
    Histogram() : counts(1, 0) {}
    explicit Histogram(std::vector<double> upper_bounds);

    void add(double v);

    std::size_t numBuckets() const { return counts.size(); }
    std::uint64_t bucketCount(std::size_t i) const { return counts[i]; }
    /** Upper bound of bucket @p i (+inf for the overflow bucket). */
    double upperBound(std::size_t i) const;
    const std::vector<double> &bounds() const { return ubounds; }

    /** count/sum/mean/min/max of the raw series. */
    const RunningStat &summary() const { return stats; }

    /**
     * Estimated @p q-quantile (q in [0, 1]) of the recorded series,
     * interpolated linearly within the bucket that holds it; the edge
     * buckets use the observed min/max instead of -inf/+inf, and the
     * result is clamped to [min, max]. NaN when empty.
     */
    double quantile(double q) const;

    /** Combine another histogram with identical bounds. */
    void merge(const Histogram &other);

  private:
    std::vector<double> ubounds;
    std::vector<std::uint64_t> counts;  //!< ubounds.size() + 1 entries
    RunningStat stats;
};

/** What a registry entry holds. */
enum class StatKind : std::uint8_t { Counter, Gauge, Histogram };

/**
 * The registry. Registration is idempotent: asking for an existing
 * name returns the existing stat (a kind mismatch is a fatal usage
 * error). Entry storage is a deque, so returned references stay valid
 * for the registry's lifetime.
 */
class StatsRegistry
{
  public:
    struct Entry
    {
        std::string name;
        std::string desc;
        std::variant<Counter, Gauge, Histogram> stat;

        StatKind kind() const
        { return static_cast<StatKind>(stat.index()); }
    };

    Counter &counter(const std::string &name, std::string desc = {});
    Gauge &gauge(const std::string &name, std::string desc = {});
    Histogram &histogram(const std::string &name,
                         std::vector<double> upper_bounds,
                         std::string desc = {});

    /** Lookup by exact name; nullptr when absent. */
    const Entry *find(std::string_view name) const;

    /**
     * All entries whose dotted name lies under @p prefix ("clock"
     * matches "clock.int.x" but not "clocking"), in registration
     * order. An exact-name match is included too.
     */
    std::vector<const Entry *> withPrefix(std::string_view prefix) const;

    /** Entries in registration order. */
    const std::deque<Entry> &entries() const { return items; }
    std::size_t size() const { return items.size(); }

    /**
     * Fold another registry in, by name: counters add, histograms
     * merge bucket-wise, gauges take the other's (later) value.
     * Entries missing here are created in the other's kind, keeping
     * the result independent of which per-thread shard merges first
     * for counters and histograms.
     */
    void merge(const StatsRegistry &other);

    /** Emit the registry as one JSON object, entries in
     *  registration order. */
    void writeJson(json::Writer &w) const;

  private:
    Entry &getOrCreate(const std::string &name, std::string desc,
                       StatKind kind, std::vector<double> bounds = {});

    std::deque<Entry> items;
    std::unordered_map<std::string, std::size_t> index;
};

} // namespace obs
} // namespace mcd

#endif // MCD_OBS_STATS_REGISTRY_HH
