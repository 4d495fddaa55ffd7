#include "host_prof.hh"

#include <algorithm>
#include <limits>

#include "common/json_writer.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <time.h>
#endif

namespace mcd {
namespace obs {

namespace {

/** What the Scopes closed directly inside an open one took. */
struct Nested
{
    std::int64_t wallNs = 0;
    std::int64_t cpuNs = 0;
};

/** The calling thread's open Scopes, innermost last. */
std::vector<Nested> &
openScopes()
{
    thread_local std::vector<Nested> open;
    return open;
}

double
toMs(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

double
toUs(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e3;
}

std::int64_t
nanosBetween(std::chrono::steady_clock::time_point a,
             std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

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
    lanes.clear();
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
    Slice s;
    s.kind = std::move(kind);
    s.detail = std::move(detail);
    s.lane = 0;
    s.startNs = nanosBetween(p->epoch, start);
    // The CPU reading sits inside the wall interval at both ends.
    const std::int64_t cpuNs = threadCpuNs() - cpuStart;
    s.durNs = nanosBetween(start, std::chrono::steady_clock::now());
    s.selfNs = s.durNs;
    s.cpuNs = cpuNs;
    std::vector<Nested> &open = openScopes();
    if (depth < open.size()) {
        s.selfNs -= open[depth].wallNs;
        s.cpuNs -= open[depth].cpuNs;
        open.resize(depth);
        if (depth) {
            open[depth - 1].wallNs += s.durNs;
            open[depth - 1].cpuNs += cpuNs;
        }
    }
    s.rssKb = peakRssKb();
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
    s.depth = openScopes().size();
    openScopes().push_back({});
    s.start = std::chrono::steady_clock::now();
    s.cpuStart = threadCpuNs();
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

std::int64_t
HostProfiler::threadCpuNs()
{
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
        return 0;
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
        ts.tv_nsec;
#else
    return 0;
#endif
}

HostProfiler::Snapshot
HostProfiler::snapshot() const
{
    Snapshot snap;
    {
        std::lock_guard<std::mutex> lock(mtx);
        snap.slices = slices;
        snap.lanes = lanes.size();
    }
    snap.peakRssKb = peakRssKb();
    std::int64_t first = std::numeric_limits<std::int64_t>::max();
    std::int64_t last = 0;
    for (const Slice &s : snap.slices) {
        Snapshot::Phase &ph = snap.phases[s.kind];
        ++ph.count;
        ph.selfNs += s.selfNs;
        ph.cpuNs += s.cpuNs;
        ph.maxNs = std::max(ph.maxNs, s.durNs);
        if (s.kind == "simulate")
            snap.legs[s.detail] = s;
        first = std::min(first, s.startNs);
        last = std::max(last, s.startNs + s.durNs);
        snap.selfNs += s.selfNs;
    }
    snap.wallNs = snap.slices.empty() ? 0 : last - first;
    std::stable_sort(snap.slices.begin(), snap.slices.end(),
                     [](const Slice &a, const Slice &b) {
                         if (a.startNs != b.startNs)
                             return a.startNs < b.startNs;
                         return a.lane < b.lane;
                     });
    return snap;
}

void
HostProfiler::Snapshot::publish(StatsRegistry &reg) const
{
    for (const auto &[kind, ph] : phases) {
        std::string p = "host.phase." + kind;
        reg.counter(p + ".count", "host phases of this kind entered")
            .inc(ph.count);
        reg.gauge(p + ".self_ms",
                  "wall time summed over the phases, nested phases "
                  "subtracted")
            .set(toMs(ph.selfNs));
        reg.gauge(p + ".cpu_ms",
                  "thread CPU time summed over the phases, nested "
                  "phases subtracted")
            .set(toMs(ph.cpuNs));
        reg.gauge(p + ".max_ms", "longest single phase, nested "
                  "phases included")
            .set(toMs(ph.maxNs));
    }

    for (const auto &[site, s] : legs) {
        std::string p = "host.leg." + site;
        reg.gauge(p + ".wall_ms", "host wall time simulating the leg")
            .set(toMs(s.durNs));
        reg.gauge(p + ".peak_rss_kb", "process peak RSS after the leg")
            .set(static_cast<double>(s.rssKb));
    }

    reg.gauge("host.peak_rss_kb", "process peak resident set size")
        .set(static_cast<double>(peakRssKb));

    if (wallNs) {
        reg.gauge("host.pool.lanes", "host threads that recorded phases")
            .set(static_cast<double>(lanes));
        reg.gauge("host.pool.wall_ms",
                  "first phase start to last phase end")
            .set(toMs(wallNs));
        reg.gauge("host.pool.self_ms",
                  "self time summed over every phase; at most "
                  "wall_ms * lanes")
            .set(toMs(selfNs));
    }
}

void
HostProfiler::Snapshot::writeProfile(std::ostream &os) const
{
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
    // laneOf() numbers lanes densely from 0.
    for (std::size_t lane = 0; lane < lanes; ++lane)
        metadata("thread_name", static_cast<int>(lane),
                 "host " + std::to_string(lane));
    for (const Slice &s : slices) {
        w.beginObject(json::Inline)
            .field("name", s.kind).field("cat", "host")
            .field("ph", "X").field("pid", 1).field("tid", s.lane)
            .field("ts", toUs(s.startNs)).field("dur", toUs(s.durNs));
        if (!s.detail.empty()) {
            w.key("args").beginObject(json::Inline)
                .field("detail", s.detail).endObject();
        }
        w.endObject();
    }
    w.endArray();

    w.key("host").beginObject().key("phases").beginObject();
    for (const auto &[kind, ph] : phases) {
        w.key(kind).beginObject(json::Inline)
            .field("count", ph.count)
            .field("selfMs", toMs(ph.selfNs))
            .field("cpuMs", toMs(ph.cpuNs))
            .field("maxMs", toMs(ph.maxNs)).endObject();
    }
    w.endObject().key("legs").beginArray();
    for (const auto &[site, s] : legs) {
        w.beginObject(json::Inline)
            .field("site", site).field("wallMs", toMs(s.durNs))
            .field("peakRssKb", s.rssKb).endObject();
    }
    w.endArray();
    w.key("pool").beginObject(json::Inline)
        .field("lanes", lanes)
        .field("wallMs", toMs(wallNs))
        .field("selfMs", toMs(selfNs))
        .endObject();
    w.field("peakRssKb", peakRssKb).endObject().endObject();
    os << '\n';
}

} // namespace obs
} // namespace mcd
