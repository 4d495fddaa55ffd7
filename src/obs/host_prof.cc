#include "host_prof.hh"

#include <algorithm>

#include "common/json_writer.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace mcd {
namespace obs {

namespace {

struct PhaseAgg
{
    std::uint64_t count = 0;
    double totalMs = 0.0;
    double maxMs = 0.0;
};

} // namespace

HostProfiler &
HostProfiler::instance()
{
    static HostProfiler p;
    return p;
}

void
HostProfiler::reset(bool enable)
{
    std::lock_guard<std::mutex> lock(mtx);
    slices.clear();
    legs.clear();
    lanes.clear();
    poolWorkers = 0;
    poolTasks = 0;
    poolBusyNs = 0;
    poolWallNs = 0;
    epoch = std::chrono::steady_clock::now();
    on.store(enable, std::memory_order_relaxed);
}

void
HostProfiler::Scope::close()
{
    if (!prof)
        return;
    HostProfiler *p = prof;
    prof = nullptr;
    auto end = std::chrono::steady_clock::now();
    Slice s;
    s.kind = std::move(kind);
    s.detail = std::move(detail);
    s.lane = 0;
    std::chrono::duration<double, std::micro> rel = start - p->epoch;
    std::chrono::duration<double, std::micro> dur = end - start;
    s.startUs = rel.count();
    s.durUs = dur.count();
    p->record(std::move(s));
}

HostProfiler::Scope
HostProfiler::phase(std::string kind, std::string detail)
{
    Scope s;
    if (!enabled())
        return s;
    s.prof = this;
    s.kind = std::move(kind);
    s.detail = std::move(detail);
    s.start = std::chrono::steady_clock::now();
    return s;
}

int
HostProfiler::laneOf(std::thread::id id)
{
    auto it = lanes.find(id);
    if (it != lanes.end())
        return it->second;
    int lane = static_cast<int>(lanes.size());
    lanes.emplace(id, lane);
    return lane;
}

void
HostProfiler::record(Slice s)
{
    std::lock_guard<std::mutex> lock(mtx);
    if (!on.load(std::memory_order_relaxed))
        return;
    s.lane = laneOf(std::this_thread::get_id());
    slices.push_back(std::move(s));
}

void
HostProfiler::noteLeg(const std::string &site, double wall_ms,
                      std::uint64_t rss_kb)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mtx);
    legs.push_back({site, wall_ms, rss_kb});
}

void
HostProfiler::notePool(unsigned workers, std::uint64_t tasks,
                       std::uint64_t busy_ns, std::uint64_t wall_ns)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mtx);
    poolWorkers = workers;
    poolTasks = tasks;
    poolBusyNs = busy_ns;
    poolWallNs = wall_ns;
}

std::uint64_t
HostProfiler::peakRssKb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(ru.ru_maxrss) / 1024;
#else
    return static_cast<std::uint64_t>(ru.ru_maxrss);
#endif
#else
    return 0;
#endif
}

void
HostProfiler::publish(StatsRegistry &reg) const
{
    std::lock_guard<std::mutex> lock(mtx);

    // std::map iteration gives the name-sorted, job-count-independent
    // key order the merged stats JSON requires.
    std::map<std::string, PhaseAgg> agg;
    for (const Slice &s : slices) {
        PhaseAgg &a = agg[s.kind];
        ++a.count;
        double ms = s.durUs / 1e3;
        a.totalMs += ms;
        a.maxMs = std::max(a.maxMs, ms);
    }
    for (const auto &kv : agg) {
        std::string p = "host.phase." + kv.first;
        reg.counter(p + ".count", "host phases of this kind entered")
            .inc(kv.second.count);
        reg.gauge(p + ".total_ms", "wall time summed over the phases")
            .set(kv.second.totalMs);
        reg.gauge(p + ".max_ms", "longest single phase")
            .set(kv.second.maxMs);
    }

    std::map<std::string, const LegTime *> bySite;
    for (const LegTime &l : legs)
        bySite[l.site] = &l;
    for (const auto &kv : bySite) {
        std::string p = "host.leg." + kv.first;
        reg.gauge(p + ".wall_ms", "host wall time simulating the leg")
            .set(kv.second->wallMs);
        reg.gauge(p + ".peak_rss_kb", "process peak RSS after the leg")
            .set(static_cast<double>(kv.second->rssKb));
    }

    reg.gauge("host.peak_rss_kb", "process peak resident set size")
        .set(static_cast<double>(peakRssKb()));

    if (poolWallNs) {
        reg.gauge("host.pool.workers", "pool worker threads")
            .set(static_cast<double>(poolWorkers));
        reg.counter("host.pool.tasks", "tasks the pool executed")
            .inc(poolTasks);
        reg.gauge("host.pool.busy_ms", "worker time spent in tasks")
            .set(static_cast<double>(poolBusyNs) / 1e6);
        // The helping main thread also runs tasks, so a saturated
        // matrix can honestly exceed 1.0.
        double denom = static_cast<double>(poolWallNs) *
            std::max(1u, poolWorkers);
        reg.gauge("host.pool.utilization",
                  "busy time / (wall time * workers)")
            .set(static_cast<double>(poolBusyNs) / denom);
    }
}

void
HostProfiler::writeProfile(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mtx);

    std::vector<const Slice *> ordered;
    ordered.reserve(slices.size());
    for (const Slice &s : slices)
        ordered.push_back(&s);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Slice *a, const Slice *b) {
                         if (a->startUs != b->startUs)
                             return a->startUs < b->startUs;
                         return a->lane < b->lane;
                     });

    json::Writer w(os);
    auto metadata = [&](const char *kind, int tid,
                        const std::string &name) {
        w.beginObject(json::Inline)
            .field("name", kind).field("ph", "M").field("pid", 1)
            .field("tid", tid);
        w.key("args").beginObject(json::Inline)
            .field("name", name).endObject();
        w.endObject();
    };
    w.beginObject().key("traceEvents").beginArray();
    metadata("process_name", 0, "host");
    std::vector<int> laneIds;
    for (const auto &kv : lanes)
        laneIds.push_back(kv.second);
    std::sort(laneIds.begin(), laneIds.end());
    for (int lane : laneIds)
        metadata("thread_name", lane, "host " + std::to_string(lane));
    for (const Slice *s : ordered) {
        w.beginObject(json::Inline)
            .field("name", s->kind).field("cat", "host")
            .field("ph", "X").field("pid", 1).field("tid", s->lane)
            .field("ts", s->startUs).field("dur", s->durUs);
        if (!s->detail.empty()) {
            w.key("args").beginObject(json::Inline)
                .field("detail", s->detail).endObject();
        }
        w.endObject();
    }
    w.endArray();

    std::map<std::string, PhaseAgg> agg;
    for (const Slice &s : slices) {
        PhaseAgg &a = agg[s.kind];
        ++a.count;
        double ms = s.durUs / 1e3;
        a.totalMs += ms;
        a.maxMs = std::max(a.maxMs, ms);
    }
    w.key("host").beginObject().key("phases").beginObject();
    for (const auto &kv : agg) {
        w.key(kv.first).beginObject(json::Inline)
            .field("count", kv.second.count)
            .field("totalMs", kv.second.totalMs)
            .field("maxMs", kv.second.maxMs).endObject();
    }
    w.endObject().key("legs").beginArray();
    std::map<std::string, const LegTime *> bySite;
    for (const LegTime &l : legs)
        bySite[l.site] = &l;
    for (const auto &kv : bySite) {
        w.beginObject(json::Inline)
            .field("site", kv.first).field("wallMs", kv.second->wallMs)
            .field("peakRssKb", kv.second->rssKb).endObject();
    }
    w.endArray();
    w.key("pool").beginObject(json::Inline)
        .field("workers", poolWorkers).field("tasks", poolTasks)
        .field("busyMs", static_cast<double>(poolBusyNs) / 1e6)
        .field("wallMs", static_cast<double>(poolWallNs) / 1e6)
        .endObject();
    w.field("peakRssKb", peakRssKb()).endObject().endObject();
    os << '\n';
}

} // namespace obs
} // namespace mcd
