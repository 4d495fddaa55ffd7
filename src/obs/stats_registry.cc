#include "stats_registry.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"

namespace mcd {
namespace obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : ubounds(std::move(upper_bounds)), counts(ubounds.size() + 1, 0)
{
    mcdAssert(std::is_sorted(ubounds.begin(), ubounds.end()),
              "Histogram bounds must be ascending");
}

void
Histogram::add(double v)
{
    // Bucket counts are small (typically < 16); a linear scan beats a
    // binary search at this size and stays branch-predictable for the
    // common low buckets.
    std::size_t i = 0;
    while (i < ubounds.size() && v > ubounds[i])
        ++i;
    ++counts[i];
    stats.add(v);
}

double
Histogram::upperBound(std::size_t i) const
{
    return i < ubounds.size() ? ubounds[i]
                              : std::numeric_limits<double>::infinity();
}

double
Histogram::quantile(double q) const
{
    if (stats.empty())
        return std::numeric_limits<double>::quiet_NaN();
    double target = q * static_cast<double>(stats.count());
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] &&
            static_cast<double>(cum + counts[i]) >= target) {
            double lo = i == 0 ? stats.min() : ubounds[i - 1];
            double hi = i < ubounds.size() ? ubounds[i] : stats.max();
            double frac = (target - static_cast<double>(cum)) /
                static_cast<double>(counts[i]);
            double v = lo + frac * (hi - lo);
            return std::clamp(v, stats.min(), stats.max());
        }
        cum += counts[i];
    }
    return stats.max();
}

void
Histogram::merge(const Histogram &other)
{
    mcdAssert(ubounds == other.ubounds,
              "Histogram::merge: bucket bounds differ");
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts[i] += other.counts[i];
    stats.merge(other.stats);
}

StatsRegistry::Entry &
StatsRegistry::getOrCreate(const std::string &name, std::string desc,
                           StatKind kind, std::vector<double> bounds)
{
    auto it = index.find(name);
    if (it != index.end()) {
        Entry &e = items[it->second];
        if (e.kind() != kind) {
            panic("StatsRegistry: '" + name +
                  "' re-registered as a different kind");
        }
        return e;
    }
    Entry e;
    e.name = name;
    e.desc = std::move(desc);
    switch (kind) {
      case StatKind::Counter: e.stat = Counter{}; break;
      case StatKind::Gauge: e.stat = Gauge{}; break;
      case StatKind::Histogram:
        e.stat = Histogram(std::move(bounds));
        break;
    }
    index.emplace(name, items.size());
    items.push_back(std::move(e));
    return items.back();
}

Counter &
StatsRegistry::counter(const std::string &name, std::string desc)
{
    return std::get<Counter>(
        getOrCreate(name, std::move(desc), StatKind::Counter).stat);
}

Gauge &
StatsRegistry::gauge(const std::string &name, std::string desc)
{
    return std::get<Gauge>(
        getOrCreate(name, std::move(desc), StatKind::Gauge).stat);
}

Histogram &
StatsRegistry::histogram(const std::string &name,
                         std::vector<double> upper_bounds,
                         std::string desc)
{
    return std::get<Histogram>(
        getOrCreate(name, std::move(desc), StatKind::Histogram,
                    std::move(upper_bounds)).stat);
}

const StatsRegistry::Entry *
StatsRegistry::find(std::string_view name) const
{
    auto it = index.find(std::string(name));
    return it == index.end() ? nullptr : &items[it->second];
}

std::vector<const StatsRegistry::Entry *>
StatsRegistry::withPrefix(std::string_view prefix) const
{
    std::vector<const Entry *> out;
    for (const Entry &e : items) {
        if (e.name.size() < prefix.size() ||
            e.name.compare(0, prefix.size(), prefix) != 0) {
            continue;
        }
        if (e.name.size() == prefix.size() ||
            e.name[prefix.size()] == '.') {
            out.push_back(&e);
        }
    }
    return out;
}

void
StatsRegistry::merge(const StatsRegistry &other)
{
    for (const Entry &oe : other.items) {
        switch (oe.kind()) {
          case StatKind::Counter:
            counter(oe.name, oe.desc)
                .inc(std::get<Counter>(oe.stat).value());
            break;
          case StatKind::Gauge:
            gauge(oe.name, oe.desc).set(std::get<Gauge>(oe.stat).value());
            break;
          case StatKind::Histogram: {
            const Histogram &oh = std::get<Histogram>(oe.stat);
            // Registration is idempotent and keeps the *existing*
            // bounds, so a bounds mismatch here would silently misbin
            // the other shard's counts. Fail fast, with both layouts.
            if (const Entry *mine = find(oe.name)) {
                const Histogram &h = std::get<Histogram>(mine->stat);
                if (h.bounds() != oh.bounds()) {
                    auto render = [](const std::vector<double> &b) {
                        std::string s = "[";
                        for (std::size_t i = 0; i < b.size(); ++i) {
                            if (i)
                                s += ", ";
                            s += std::to_string(b[i]);
                        }
                        return s + "]";
                    };
                    fatal("StatsRegistry::merge: histogram '" + oe.name +
                          "' has incompatible bucket bounds: ours " +
                          render(h.bounds()) + " vs theirs " +
                          render(oh.bounds()));
                }
            }
            histogram(oe.name, oh.bounds(), oe.desc).merge(oh);
            break;
          }
        }
    }
}

void
StatsRegistry::writeJson(json::Writer &w) const
{
    w.beginObject();
    for (const Entry &e : items) {
        w.key(e.name);
        switch (e.kind()) {
          case StatKind::Counter:
            w.value(std::get<Counter>(e.stat).value());
            break;
          case StatKind::Gauge:
            w.value(std::get<Gauge>(e.stat).value());
            break;
          case StatKind::Histogram: {
            const Histogram &h = std::get<Histogram>(e.stat);
            const RunningStat &s = h.summary();
            w.beginObject(json::Inline)
                .field("count", s.count()).field("sum", s.sum())
                .field("min", s.empty() ? 0.0 : s.min())
                .field("max", s.empty() ? 0.0 : s.max())
                .field("p50", h.quantile(0.50))
                .field("p90", h.quantile(0.90))
                .field("p99", h.quantile(0.99));
            w.key("buckets").beginArray(json::Inline);
            for (std::size_t i = 0; i < h.numBuckets(); ++i) {
                w.beginObject(json::Inline)
                    .field("le", h.upperBound(i))
                    .field("count", h.bucketCount(i)).endObject();
            }
            w.endArray().endObject();
            break;
          }
        }
    }
    w.endObject();
}

} // namespace obs
} // namespace mcd
