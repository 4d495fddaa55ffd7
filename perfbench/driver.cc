/**
 * @file
 * Benchmark driver for the MCD experiment matrix (the paper's §4
 * figure runs), calling the simulator library in-process.
 *
 *   perfbench_driver --mode time|trace --workload NAME --seed N
 *                    [--spawn-ns T] [--benchmarks a,b] [--jobs N]
 *                    [--fault-plan SPEC] [--spans PATH]
 *
 * time:  one timed unit. Set-up (configuration resolution, then one
 *        build of every roster program), then runMatrix() on an
 *        ExperimentConfig built here with the experiment cache off,
 *        then the correctness checks. --spawn-ns is the parent's
 *        CLOCK_MONOTONIC reading just before it started this process,
 *        so setup_s covers process start too.
 * trace: an untraced reference runMatrix() followed by a replica of
 *        the same matrix rebuilt from the layers' public functions,
 *        with a span around every call into a layer. The replica must
 *        match the reference bit for bit. Spans go to --spans.
 *
 * Either mode prints one JSON object on stdout and exits 1 when a
 * correctness check fails (2 on a usage or configuration error).
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/analyzer.hh"
#include "common/log.hh"
#include "common/thread_pool.hh"
#include "config/runspec.hh"
#include "control/registry.hh"
#include "core/experiment.hh"
#include "core/processor.hh"
#include "fault/fault_plan.hh"
#include "workloads/workloads.hh"

namespace mcd {
namespace {

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/**
 * One benchmark workload. Rosters are fixed subsets of the sixteen
 * benchmarks (scale 1), the same for every seed: the seed reaches only
 * the simulator's random streams, so every seed does the same work.
 * A whole 16-benchmark matrix takes about a minute serially, far more
 * than one measured run may take, so each roster is sized to a few
 * seconds and a run repeats it.
 */
struct Workload
{
    const char *name;
    const char *roster;
    int jobs;
    /** Non-empty: the tournament leg set filtered to these names
     *  (which leaves out its dyn5 oracle). Empty: the paper's legs. */
    const char *controllers;
    const char *sampling;       //!< empty = full detail
};

// At most half of the 4 CPUs this was tuned on run as pool workers
// (plus the helping caller), so wall time measures the program and
// not the host scheduler.
const Workload benchWorkloads[] = {
    {"paper-matrix", "adpcm,tsp,art", 1, "", ""},
    {"controller-zoo", "adpcm,g721,tsp,art,mcf", 1,
     "online-queue,pid,governor-performance,governor-powersave,"
     "governor-ondemand,governor-conservative,table",
     ""},
    // Two benchmarks for two workers: each worker runs one benchmark
    // and every helping wait can only pick up a leg. With more
    // benchmarks than workers a helping wait nests a whole benchmark,
    // and wall time swung by 20-40% from one run to the next.
    {"sampled-j2", "mcf,g721", 2, "", "detailed=1000,ff=9000,warmup=250"},
};

struct Args
{
    std::string mode;
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    std::int64_t spawnNs = -1;
    std::string benchmarks;     //!< overrides the roster
    int jobs = -1;              //!< overrides the workload's jobs
    std::string faultPlan;
    std::string spansPath;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --mode time|trace --workload "
                 "NAME --seed N [--spawn-ns T] [--benchmarks a,b] "
                 "[--jobs N] [--fault-plan SPEC] [--spans PATH]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    std::string workload;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        std::string val = argv[++i];
        try {
            if (key == "--mode")
                a.mode = val;
            else if (key == "--workload")
                workload = val;
            else if (key == "--seed")
                a.seed = std::stoull(val);
            else if (key == "--spawn-ns")
                a.spawnNs = std::stoll(val);
            else if (key == "--benchmarks")
                a.benchmarks = val;
            else if (key == "--jobs")
                a.jobs = std::stoi(val);
            else if (key == "--fault-plan")
                a.faultPlan = val;
            else if (key == "--spans")
                a.spansPath = val;
            else
                usage("unknown option " + key);
        } catch (const std::logic_error &) {
            usage("bad value for " + key + ": " + val);
        }
    }
    if (a.mode != "time" && a.mode != "trace")
        usage("--mode must be time or trace");
    for (const Workload &w : benchWorkloads) {
        if (workload == w.name)
            a.workload = &w;
    }
    if (!a.workload)
        usage("unknown workload '" + workload + "'");
    return a;
}

std::vector<std::string>
rosterOf(const Args &a)
{
    return config::splitList(a.benchmarks.empty() ? a.workload->roster
                                                  : a.benchmarks);
}

int
jobsOf(const Args &a)
{
    return a.jobs >= 0 ? a.jobs : a.workload->jobs;
}

/** The workload's matrix configuration, cache off. */
ExperimentConfig
makeConfig(const Args &a)
{
    ExperimentConfig cfg =
        experimentConfigFromSpec(config::RunSpec::resolve());
    cfg.seed = a.seed;
    cfg.cacheDir.clear();
    if (*a.workload->sampling)
        cfg.sampling = SamplingParams::fromSpec(a.workload->sampling);
    if (*a.workload->controllers) {
        std::vector<std::string> want =
            config::splitList(a.workload->controllers);
        for (const LegSpec &l : tournamentLegs(cfg)) {
            if (l.kind == LegSpec::Kind::Controller &&
                std::find(want.begin(), want.end(), l.name) != want.end())
                cfg.legs.push_back(l);
        }
        if (cfg.legs.size() != want.size())
            fatal("controller-zoo: not every listed controller is "
                  "registered");
    } else {
        cfg.legs = defaultLegs(cfg);
    }
    if (!a.faultPlan.empty())
        cfg.faults = std::make_shared<const fault::FaultPlan>(
            fault::FaultPlan::parse(a.faultPlan));
    return cfg;
}

// ---------------------------------------------------------------------
// Host measurements
// ---------------------------------------------------------------------

std::int64_t
monoNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now().time_since_epoch()).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------
// Correctness checks and the paper comparison
// ---------------------------------------------------------------------

/** Every run of @p row as ("bench/leg", run), in namedRuns() order. */
std::vector<NamedRun>
runsOf(const BenchmarkResults &row)
{
    std::vector<NamedRun> out = {{row.name + "/baseline", &row.baseline},
                                 {row.name + "/mcdBaseline",
                                  &row.mcdBaseline}};
    for (const ControllerLeg &l : row.legs)
        out.push_back({row.name + "/" + l.spec.name, &l.run});
    return out;
}

/** The run of @p leg in @p row ("mcdBaseline" or a leg name), or
 *  nullptr when absent or failed. */
const RunResult *
runOf(const BenchmarkResults &row, const std::string &leg)
{
    const RunResult *r = nullptr;
    if (leg == "mcdBaseline") {
        r = &row.mcdBaseline;
    } else if (const ControllerLeg *l = row.findLeg(leg)) {
        r = &l->run;
    }
    if (!r || r->failed() || row.baseline.failed())
        return nullptr;
    return r;
}

using Figure = double (BenchmarkResults::*)(const RunResult &) const;

/** Mean of @p fig over the rows where @p leg completed, in percent;
 *  NaN when it completed nowhere. */
double
meanPct(const std::vector<BenchmarkResults> &rows, const std::string &leg,
        Figure fig)
{
    double sum = 0.0;
    int n = 0;
    for (const BenchmarkResults &row : rows) {
        if (const RunResult *r = runOf(row, leg)) {
            sum += (row.*fig)(*r);
            ++n;
        }
    }
    return n ? 100.0 * sum / n : std::nan("");
}

/** A single-number paper value quoted in EXPERIMENTS.md. */
struct PaperPoint
{
    const char *leg;
    Figure figure;
    double paperPct;
};

const PaperPoint paperPoints[] = {
    {"dyn5", &BenchmarkResults::perfDegradation, 10.0},     // Fig 5
    {"mcdBaseline", &BenchmarkResults::energySavings, -1.5}, // Fig 6
    {"dyn5", &BenchmarkResults::energySavings, 27.0},
    {"mcdBaseline", &BenchmarkResults::edpImprovement, -5.0}, // Fig 7
    {"dyn1", &BenchmarkResults::edpImprovement, 13.0},
    {"dyn5", &BenchmarkResults::edpImprovement, 20.0},
    {"global", &BenchmarkResults::edpImprovement, 3.0},
};

/** Mean absolute gap (percentage points) over the paper points whose
 *  leg this matrix produced. */
double
paperGapPt(const std::vector<BenchmarkResults> &rows)
{
    double sum = 0.0;
    int n = 0;
    for (const PaperPoint &p : paperPoints) {
        double m = meanPct(rows, p.leg, p.figure);
        if (!std::isnan(m)) {
            sum += std::fabs(m - p.paperPct);
            ++n;
        }
    }
    return n ? sum / n : std::nan("");
}

/** Every failed check, as a message; empty means correct. */
std::vector<std::string>
checkMatrix(const std::vector<BenchmarkResults> &rows, bool sampled)
{
    std::vector<std::string> bad;
    for (const BenchmarkResults &row : rows) {
        if (std::size_t f = row.failedLegs())
            bad.push_back(row.name + ": " + std::to_string(f) +
                          " failed leg(s)");
        // Every leg simulates the whole program (sampled legs count
        // fast-forwarded instructions too).
        for (const NamedRun &nr : runsOf(row)) {
            if (!nr.run->failed() && nr.run->committed == 0)
                bad.push_back(nr.name + ": committed nothing");
            if (!nr.run->failed() && !row.baseline.failed() &&
                nr.run->committed != row.baseline.committed)
                bad.push_back(nr.name + ": committed " +
                              std::to_string(nr.run->committed) +
                              " != baseline " +
                              std::to_string(row.baseline.committed));
        }
    }
    // Fig 5: splitting the clock costs some performance. Only in full
    // detail: a sampled matrix compares a sampled baseline against the
    // full-detail profiling run.
    if (!sampled && !(meanPct(rows, "mcdBaseline",
                              &BenchmarkResults::perfDegradation) > 0.0))
        bad.push_back("fig5: baseline MCD shows no slowdown");
    // Figs 6 and 7: dyn5 > dyn1 > global on energy and on EDP, with
    // the margins EXPERIMENTS.md states. Energy: per-domain scaling
    // saves several times what global scaling saves at the same
    // performance cost (dyn5 >= 2x global). EDP, the headline:
    // dyn1 >> global, global barely positive (dyn1 >= 2x global).
    const struct
    {
        const char *what;
        Figure figure;
        const char *wide;       //!< the leg that must reach 2x global
    } claims[] = {{"fig6 energy", &BenchmarkResults::energySavings, "dyn5"},
                  {"fig7 EDP", &BenchmarkResults::edpImprovement, "dyn1"}};
    for (const auto &c : claims) {
        double d5 = meanPct(rows, "dyn5", c.figure);
        double d1 = meanPct(rows, "dyn1", c.figure);
        double gl = meanPct(rows, "global", c.figure);
        if (std::isnan(d5) || std::isnan(d1) || std::isnan(gl))
            continue;   // leg set without the paper's dynamic legs
        double wide = c.wide == std::string_view("dyn5") ? d5 : d1;
        if (!(d5 > d1 && d1 > gl && wide >= 2.0 * gl)) {
            char buf[200];
            std::snprintf(buf, sizeof(buf),
                          "%s: dyn5 %.2f%%, dyn1 %.2f%%, global %.2f%% "
                          "break dyn5 > dyn1 > global with %s >= 2x "
                          "global",
                          c.what, d5, d1, gl, c.wide);
            bad.push_back(buf);
        }
    }
    return bad;
}

// ---------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** The per-leg results that must never change: one
 *  [site, execTime, committed, totalEnergy] row per leg. */
std::string
legsJson(const std::vector<BenchmarkResults> &rows)
{
    std::string out = "[";
    for (const NamedRun &nr : namedRuns(rows)) {
        if (out.size() > 1)
            out += ",";
        out += "[" + jsonString(nr.name) + "," +
            std::to_string(nr.run->execTime) + "," +
            std::to_string(nr.run->committed) + "," +
            jsonNumber(nr.run->totalEnergy) + "]";
    }
    return out + "]";
}

/** Roster means, in percent, of every completed leg's figures. */
std::string
figuresJson(const std::vector<BenchmarkResults> &rows)
{
    const struct
    {
        const char *key;
        Figure figure;
    } figs[] = {{"perf_degradation", &BenchmarkResults::perfDegradation},
                {"energy_savings", &BenchmarkResults::energySavings},
                {"edp_improvement", &BenchmarkResults::edpImprovement}};
    std::vector<std::string> legs = {"mcdBaseline"};
    if (!rows.empty()) {
        for (const ControllerLeg &l : rows.front().legs)
            legs.push_back(l.spec.name);
    }
    std::string out = "{";
    for (const auto &f : figs) {
        out += (out.size() > 1 ? ", " : "");
        out += jsonString(f.key) + ": {";
        for (std::size_t i = 0; i < legs.size(); ++i) {
            if (i)
                out += ", ";
            out += jsonString(legs[i]) + ": " +
                jsonNumber(meanPct(rows, legs[i], f.figure));
        }
        out += "}";
    }
    return out + "}";
}

std::string
failuresJson(const std::vector<std::string> &bad)
{
    std::string out = "[";
    for (const std::string &b : bad) {
        if (out.size() > 1)
            out += ",";
        out += jsonString(b);
    }
    return out + "]";
}

// ---------------------------------------------------------------------
// time mode
// ---------------------------------------------------------------------

int
timeMode(const Args &a, std::int64_t spawnNs)
{
    // Set-up: configuration, then one build of every roster program,
    // so workload construction cost shows in setup_s.
    ExperimentConfig cfg = makeConfig(a);
    std::vector<std::string> names = rosterOf(a);
    for (const std::string &n : names)
        (void)workloads::build(n, cfg.scale);

    std::int64_t t0 = monoNs();
    double cpu0 = cpuSeconds();
    std::vector<BenchmarkResults> rows = runMatrix(cfg, names, jobsOf(a));
    std::int64_t t1 = monoNs();
    double cpu1 = cpuSeconds();

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t retried = 0;
    std::uint64_t simInst = 0;
    for (const BenchmarkResults &row : rows) {
        attempted += row.totalLegs();
        failed += row.failedLegs();
        for (const NamedRun &nr : runsOf(row)) {
            simInst += nr.run->committed;
            retried += nr.run->attempts > 1 ? 1 : 0;
        }
    }
    std::vector<std::string> bad =
        checkMatrix(rows, cfg.sampling.has_value());

    std::printf(
        "{\"mode\": \"time\", \"workload\": %s, \"seed\": %llu, "
        "\"jobs\": %d, \"setup_s\": %s, \"wall_s\": %s, \"cpu_s\": %s, "
        "\"peak_rss_mb\": %s, \"sim_inst\": %llu, "
        "\"legs_attempted\": %llu, \"legs_failed\": %llu, "
        "\"legs_retried\": %llu, \"paper_gap_pt\": %s, "
        "\"figures\": %s, \"failures\": %s, \"legs\": %s}\n",
        jsonString(a.workload->name).c_str(),
        static_cast<unsigned long long>(a.seed), jobsOf(a),
        jsonNumber(static_cast<double>(t0 - spawnNs) * 1e-9).c_str(),
        jsonNumber(static_cast<double>(t1 - t0) * 1e-9).c_str(),
        jsonNumber(cpu1 - cpu0).c_str(), jsonNumber(peakRssMb()).c_str(),
        static_cast<unsigned long long>(simInst),
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed),
        static_cast<unsigned long long>(retried),
        jsonNumber(paperGapPt(rows)).c_str(), figuresJson(rows).c_str(),
        failuresJson(bad).c_str(),
        legsJson(rows).c_str());
    return bad.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------
// trace mode: spans
// ---------------------------------------------------------------------

/**
 * In-memory span recorder. A span is named "<layer>.<op>"; its parent
 * is the innermost span open on the same thread when it started, so a
 * pool task run inside a helping wait nests under the waiting span.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::string detail;
        std::int64_t start = 0;
        std::int64_t end = 0;
        int lane = 0;
        int parent = -1;
        /** A total of many short calls, charged as one child of its
         *  parent; its start is nominal. */
        bool aggregate = false;
    };

    /** Closes its span on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, int idx) : tracer(t), index(idx) {}
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        ~Scope() { tracer.close(index); }
        int id() const { return index; }

      private:
        Tracer &tracer;
        int index;
    };

    Tracer() : epoch(monoNs()) {}

    std::int64_t now() const { return monoNs() - epoch; }

    Scope
    span(std::string name, std::string detail = {})
    {
        Span s;
        s.name = std::move(name);
        s.detail = std::move(detail);
        s.parent = stack().empty() ? -1 : stack().back();
        std::lock_guard<std::mutex> lk(mutex);
        s.lane = laneLocked();
        s.start = now();
        spans.push_back(std::move(s));
        int idx = static_cast<int>(spans.size()) - 1;
        stack().push_back(idx);
        return Scope(*this, idx);
    }

    /** Charge @p ns of @p name as a child of the open span @p parent. */
    void
    aggregate(int parent, std::string name, std::int64_t ns)
    {
        std::lock_guard<std::mutex> lk(mutex);
        Span s;
        s.name = std::move(name);
        s.parent = parent;
        s.lane = spans[parent].lane;
        s.start = spans[parent].start;
        s.end = s.start + ns;
        s.aggregate = true;
        spans.push_back(std::move(s));
    }

    /** Every span, closed; call once all work has finished. */
    std::vector<Span>
    snapshot() const
    {
        std::lock_guard<std::mutex> lk(mutex);
        return {spans.begin(), spans.end()};
    }

    int
    lanes() const
    {
        std::lock_guard<std::mutex> lk(mutex);
        return static_cast<int>(laneIds.size());
    }

  private:
    static std::vector<int> &
    stack()
    {
        thread_local std::vector<int> s;
        return s;
    }

    void
    close(int idx)
    {
        std::int64_t t = now();
        stack().pop_back();
        std::lock_guard<std::mutex> lk(mutex);
        spans[idx].end = t;
    }

    int
    laneLocked()
    {
        return laneIds.try_emplace(std::this_thread::get_id(),
                                   static_cast<int>(laneIds.size()))
            .first->second;
    }

    const std::int64_t epoch;
    mutable std::mutex mutex;
    std::deque<Span> spans;     //!< guarded by mutex
    std::map<std::thread::id, int> laneIds;     //!< guarded by mutex
};

/** Work counts recorded at the layer boundaries. */
struct Counts
{
    std::atomic<std::uint64_t> analysisCalls{0};
    std::atomic<std::uint64_t> events{0};
    std::atomic<std::uint64_t> traceRecords{0};
    std::atomic<std::uint64_t> globalProbes{0};
    std::atomic<std::uint64_t> simCommitted{0};
    std::atomic<std::uint64_t> ffExecuted{0};
    std::atomic<std::uint64_t> observeCalls{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> poolTasks{0};
    std::atomic<std::uint64_t> queueWaitNs{0};
};

/**
 * Times every observe() of a registry controller. Requests pass
 * through unchanged and in order, so the run is bit-identical to an
 * unwrapped one.
 */
class TimedController final : public DvfsController
{
  public:
    explicit TimedController(std::unique_ptr<DvfsController> c)
        : inner(std::move(c))
    {}

    const char *name() const override { return inner->name(); }
    Tick samplePeriod() const override { return inner->samplePeriod(); }

    void
    observe(const DomainStats &stats, Tick now) override
    {
        std::int64_t t0 = monoNs();
        inner->observe(stats, now);
        observeNs += monoNs() - t0;
        ++calls;
        for (const FreqRequest &q : inner->requests())
            request(q.domain, q.frequency);
        inner->clearRequests();
    }

    std::int64_t observeNs = 0;
    std::uint64_t calls = 0;

  private:
    std::unique_ptr<DvfsController> inner;
};

// ---------------------------------------------------------------------
// trace mode: the matrix rebuilt from the layers' public functions
// ---------------------------------------------------------------------

/**
 * One benchmark's matrix, leg for leg as ExperimentRunner::runBenchmark
 * builds it (same SimConfigs, same task graph on the same pool), with
 * a span around each call into a layer. No guard or retry: the traced
 * run is only made on matrices that completed cleanly.
 */
class TracedMatrix
{
  public:
    TracedMatrix(const ExperimentConfig &c, Tracer &t, Counts &n)
        : cfg(c), tracer(t), counts(n)
    {}

    BenchmarkResults benchmark(const std::string &name,
                               const Program &prog, ThreadPool &pool);

    /** Submit @p fn as a pool task with its own span. An inline pool
     *  (no workers) runs it at submission: no queue wait. */
    template <typename F>
    auto
    submit(ThreadPool &pool, std::string detail, F fn)
    {
        ++counts.poolTasks;
        std::int64_t enq = pool.workerCount() ? tracer.now() : -1;
        return pool.submit([this, enq, detail = std::move(detail),
                            fn = std::move(fn)]() mutable {
            Tracer::Scope s = tracer.span("pool.task", detail);
            if (enq >= 0)
                counts.queueWaitNs += static_cast<std::uint64_t>(
                    tracer.now() - enq);
            return fn();
        });
    }

  private:
    SimConfig
    simConfig(ClockingStyle style, const std::string &site) const
    {
        SimConfig sc;
        sc.clocking = style;
        sc.seed = cfg.seed;
        sc.telemetry = cfg.telemetry;
        sc.watchdogNoProgressEdges = cfg.watchdogNoProgressEdges;
        sc.watchdogMaxTicks = cfg.watchdogMaxTicks;
        sc.sampling = cfg.sampling;
        sc.faults = cfg.faults.get();
        sc.faultSite = site;
        return sc;
    }

    /** McdProcessor::run under a span named @p what. */
    RunResult
    simulate(const char *what, const std::string &site,
             const Program &prog, const SimConfig &sc,
             std::vector<InstTrace> *trace = nullptr)
    {
        RunResult r;
        {
            Tracer::Scope s = tracer.span(what, site);
            McdProcessor proc(sc, prog);
            r = proc.run();
            if (trace)
                *trace = proc.takeTrace();
        }
        counts.simCommitted += r.committed;
        if (r.sampling)
            counts.ffExecuted += r.sampling->ffExecuted;
        return r;
    }

    RunResult
    profileLeg(const std::string &site, const Program &prog,
               std::vector<InstTrace> &trace)
    {
        SimConfig sc = simConfig(ClockingStyle::Mcd, site);
        sc.collectTrace = true;
        sc.sampling.reset();
        RunResult r = simulate("core.profile", site, prog, sc, &trace);
        counts.traceRecords += trace.size();
        return r;
    }

    RunResult
    controllerLeg(const std::string &site, const Program &prog,
                  const LegSpec &leg)
    {
        SimConfig sc = simConfig(ClockingStyle::Mcd, site);
        sc.dvfs = cfg.model;
        sc.dvfsTimeScale = cfg.dvfsTimeScale;
        ControllerContext ctx{DvfsTable{}, cfg.seed, cfg.online};
        TimedController ctrl(ControllerRegistry::instance().make(
            leg.controller, ctx, leg.params));
        sc.controller = &ctrl;
        RunResult r;
        {
            Tracer::Scope s = tracer.span("core.ctrl", site);
            McdProcessor proc(sc, prog);
            r = proc.run();
            tracer.aggregate(s.id(), "control.observe", ctrl.observeNs);
        }
        counts.simCommitted += r.committed;
        counts.observeCalls += ctrl.calls;
        counts.requests += ctrl.requestsIssued();
        return r;
    }

    RunResult
    replayLeg(const std::string &site, const Program &prog,
              const std::vector<InstTrace> &trace, double dilation,
              std::size_t &scheduleSize)
    {
        AnalyzerConfig ac = OfflineAnalyzer::configFor(
            dilation, cfg.model, cfg.dvfsTimeScale);
        ++counts.analysisCalls;
        std::vector<IntervalGraph> graphs = [&] {
            Tracer::Scope s = tracer.span("analysis.depgraph", site);
            return buildIntervalGraphs(trace, ac.graph);
        }();
        std::vector<IntervalHistos> histos;
        histos.reserve(graphs.size());
        {
            Tracer::Scope s = tracer.span("analysis.shake", site);
            for (IntervalGraph &g : graphs) {
                counts.events += g.size();
                ShakeResult sr = shake(g, ac.shaker, ac.clustering.fmax,
                                       ac.clustering.fmin);
                IntervalHistos ih;
                ih.start = g.intervalStart;
                ih.end = g.intervalEnd;
                ih.hist = sr.histogram;
                histos.push_back(std::move(ih));
            }
            // The analyzer frees its graphs before it returns; charge
            // that here, not to the glue.
            std::vector<IntervalGraph>().swap(graphs);
        }
        ClusterResult cr = [&] {
            Tracer::Scope s = tracer.span("analysis.cluster", site);
            return ClusterPhase(ac.clustering).run(histos);
        }();
        SimConfig sc = simConfig(ClockingStyle::Mcd, site);
        sc.dvfs = cfg.model;
        sc.dvfsTimeScale = cfg.dvfsTimeScale;
        sc.schedule = &cr.schedule;
        scheduleSize = cr.schedule.size();
        return simulate("core.replay", site, prog, sc);
    }

    /** The global-search binary search, probe for probe. */
    RunResult
    globalLeg(const std::string &site, const Program &prog,
              const BenchmarkResults &r, const RunResult &reference,
              Hertz &frequency)
    {
        double target = r.perfDegradation(reference);
        DvfsTable table;
        int lo = 0;
        int hi = table.numPoints() - 1;
        RunResult best;
        frequency = table.fastest().frequency;
        double bestDist = 1e300;
        while (lo <= hi) {
            int mid = (lo + hi) / 2;
            Hertz f = table.point(mid).frequency;
            SimConfig sc = simConfig(ClockingStyle::SingleClock, site);
            sc.domainFrequency = {f, f, f, f};
            sc.mem.dramScalesWithClock = true;
            ++counts.globalProbes;
            RunResult res = simulate("core.global", site, prog, sc);
            double deg = r.perfDegradation(res);
            double dist = std::fabs(deg - target);
            if (dist < bestDist) {
                bestDist = dist;
                best = res;
                frequency = f;
            }
            if (deg > target)
                lo = mid + 1;
            else
                hi = mid - 1;
        }
        return best;
    }

    const ExperimentConfig &cfg;
    Tracer &tracer;
    Counts &counts;
};

BenchmarkResults
TracedMatrix::benchmark(const std::string &name, const Program &prog,
                        ThreadPool &pool)
{
    BenchmarkResults r;
    r.name = name;
    for (const LegSpec &spec : cfg.legs)
        r.legs.push_back({spec, RunResult{}, 0});
    auto site = [&](const std::string &leg) { return name + "/" + leg; };

    auto baseFut = submit(pool, site("baseline"), [&] {
        return simulate("core.baseline", site("baseline"), prog,
                        simConfig(ClockingStyle::SingleClock,
                                  site("baseline")));
    });
    std::vector<std::pair<std::size_t, std::future<RunResult>>> ctrlFuts;
    for (std::size_t i = 0; i < r.legs.size(); ++i) {
        const LegSpec *spec = &r.legs[i].spec;
        if (spec->kind != LegSpec::Kind::Controller)
            continue;
        ctrlFuts.emplace_back(i, submit(pool, site(spec->name), [&, spec] {
            return controllerLeg(site(spec->name), prog, *spec);
        }));
    }

    std::vector<InstTrace> trace;
    auto profFut = submit(pool, site("mcdBaseline"), [&] {
        return profileLeg(site("mcdBaseline"), prog, trace);
    });
    r.mcdBaseline = pool.wait(profFut);

    std::vector<std::size_t> schedSizes(r.legs.size(), 0);
    std::vector<std::pair<std::size_t, std::future<RunResult>>> replayFuts;
    for (std::size_t i = 0; i < r.legs.size(); ++i) {
        const LegSpec *spec = &r.legs[i].spec;
        if (spec->kind != LegSpec::Kind::ScheduleReplay)
            continue;
        auto leg = [&, spec, i] {
            return replayLeg(site(spec->name), prog, trace, spec->dilation,
                             schedSizes[i]);
        };
        replayFuts.emplace_back(i, submit(pool, site(spec->name), leg));
    }
    for (auto &[idx, fut] : replayFuts) {
        r.legs[idx].run = pool.wait(fut);
        r.legs[idx].scheduleSize = schedSizes[idx];
    }

    // As runBenchmark: global legs on this thread (settling only a
    // controller reference), then the remaining controller legs.
    r.baseline = pool.wait(baseFut);
    auto settle = [&](std::size_t idx) {
        for (auto &[i, fut] : ctrlFuts) {
            if (i == idx && fut.valid())
                r.legs[i].run = pool.wait(fut);
        }
    };
    for (ControllerLeg &leg : r.legs) {
        if (leg.spec.kind != LegSpec::Kind::GlobalSearch)
            continue;
        const ControllerLeg *ref = r.findLeg(leg.spec.reference);
        if (!ref)
            fatal("global leg without its reference leg");
        settle(static_cast<std::size_t>(ref - r.legs.data()));
        leg.run = globalLeg(site(leg.spec.name), prog, r, ref->run,
                            r.globalFrequency);
    }
    for (auto &[idx, fut] : ctrlFuts)
        settle(idx);
    return r;
}

// ---------------------------------------------------------------------
// trace mode: driver
// ---------------------------------------------------------------------

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
        std::bit_cast<std::uint64_t>(b);
}

/** Legs of @p traced that differ from @p ref in execTime, committed
 *  or totalEnergy (bit for bit); @p n receives the count compared. */
std::vector<std::string>
compareRuns(const std::vector<BenchmarkResults> &ref,
            const std::vector<BenchmarkResults> &traced, std::size_t &n)
{
    std::vector<std::string> bad;
    std::vector<NamedRun> a = namedRuns(ref);
    std::vector<NamedRun> b = namedRuns(traced);
    n = a.size();
    if (a.size() != b.size())
        return {"traced replica has a different leg count"};
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].name != b[i].name ||
            a[i].run->execTime != b[i].run->execTime ||
            a[i].run->committed != b[i].run->committed ||
            !sameBits(a[i].run->totalEnergy, b[i].run->totalEnergy))
            bad.push_back("traced replica differs at " + a[i].name);
    }
    return bad;
}

void
writeSpans(const std::string &path, const std::vector<Tracer::Span> &spans)
{
    std::ofstream os(path);
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &s = spans[i];
        std::string layer = s.name.substr(0, s.name.find('.'));
        os << (i ? ",\n" : "") << "{\"name\": " << jsonString(s.name)
           << ", \"cat\": " << jsonString(layer)
           << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.lane
           << ", \"ts\": " << jsonNumber(static_cast<double>(s.start) / 1e3)
           << ", \"dur\": "
           << jsonNumber(static_cast<double>(s.end - s.start) / 1e3)
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
           << ", \"detail\": " << jsonString(s.detail)
           << ", \"aggregate\": " << (s.aggregate ? "true" : "false")
           << "}}";
    }
    os << "\n]}\n";
    if (!os)
        fatal("cannot write spans to " + path);
}

int
traceMode(const Args &a)
{
    std::vector<std::string> names = rosterOf(a);
    const int jobs = jobsOf(a);

    // Untraced reference: the program as timed.
    ExperimentConfig refCfg = makeConfig(a);
    std::int64_t r0 = monoNs();
    std::vector<BenchmarkResults> ref = runMatrix(refCfg, names, jobs);
    double refWallMs = static_cast<double>(monoNs() - r0) * 1e-6;
    std::vector<std::string> bad =
        checkMatrix(ref, refCfg.sampling.has_value());

    Tracer tracer;
    Counts counts;
    ExperimentConfig cfg;
    {
        Tracer::Scope s = tracer.span("config.resolve");
        cfg = makeConfig(a);
    }
    std::vector<Program> progs;
    for (const std::string &n : names) {
        Tracer::Scope s = tracer.span("workloads.build", n);
        progs.push_back(workloads::build(n, cfg.scale));
    }

    TracedMatrix tm(cfg, tracer, counts);
    std::vector<BenchmarkResults> rows(names.size());
    double cpu0 = cpuSeconds();
    int root = -1;
    {
        Tracer::Scope s = tracer.span("bench.matrix");
        root = s.id();
        if (jobs <= 1) {
            ThreadPool inlinePool(0);
            for (std::size_t i = 0; i < names.size(); ++i)
                rows[i] = tm.benchmark(names[i], progs[i], inlinePool);
        } else {
            ThreadPool pool(static_cast<unsigned>(jobs));
            std::vector<std::future<BenchmarkResults>> futs;
            for (std::size_t i = 0; i < names.size(); ++i)
                futs.push_back(tm.submit(pool, names[i], [&, i] {
                    return tm.benchmark(names[i], progs[i], pool);
                }));
            for (std::size_t i = 0; i < names.size(); ++i)
                rows[i] = pool.wait(futs[i]);
        }
    }
    double cpuS = cpuSeconds() - cpu0;
    const int lanes = tracer.lanes();

    // Off every timed path: the cache format and the results document,
    // which runMatrix skips with the cache off and no results path.
    std::uint64_t cacheBytes = 0;
    for (const BenchmarkResults &row : rows) {
        std::ostringstream os;
        {
            Tracer::Scope s = tracer.span("expcache.write", row.name);
            expcache::write(os, row);
        }
        std::string text = os.str();
        cacheBytes += text.size();
        std::istringstream is(text);
        Tracer::Scope s = tracer.span("expcache.read", row.name);
        if (!expcache::read(is, row.name))
            bad.push_back(row.name + ": cache record does not read back");
    }
    {
        std::ostringstream os;
        Tracer::Scope s = tracer.span("render.json");
        writeResultsJson(os, cfg, rows);
    }

    std::size_t compared = 0;
    std::vector<std::string> mismatched = compareRuns(ref, rows, compared);
    bad.insert(bad.end(), mismatched.begin(), mismatched.end());

    // Self time: a span's duration less its children's.
    std::vector<Tracer::Span> spans = tracer.snapshot();
    std::vector<std::int64_t> self(spans.size());
    std::vector<std::int64_t> nestedTasks(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end - spans[i].start;
    for (const Tracer::Span &s : spans) {
        if (s.parent >= 0)
            self[s.parent] -= s.end - s.start;
    }
    // A pool task's exclusive time leaves out the tasks that ran
    // nested inside it (in a helping wait on the same thread).
    for (const Tracer::Span &s : spans) {
        if (s.name != "pool.task")
            continue;
        for (int p = s.parent; p >= 0; p = spans[p].parent) {
            if (spans[p].name == "pool.task") {
                nestedTasks[p] += s.end - s.start;
                break;
            }
        }
    }
    std::map<std::string, double> selfMs;
    double poolExclusiveMs = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        selfMs[spans[i].name] += static_cast<double>(self[i]) * 1e-6;
        if (spans[i].name == "pool.task")
            poolExclusiveMs += static_cast<double>(
                spans[i].end - spans[i].start - nestedTasks[i]) * 1e-6;
    }
    const double wallMs =
        static_cast<double>(spans[root].end - spans[root].start) * 1e-6;

    const char *simSpans[] = {"core.profile", "core.baseline", "core.replay",
                              "core.ctrl", "core.global"};
    const char *analysisSpans[] = {"analysis.depgraph", "analysis.shake",
                                   "analysis.cluster"};
    double coreMs = 0.0;
    for (const char *n : simSpans)
        coreMs += selfMs[n];
    double analysisMs = 0.0;
    for (const char *n : analysisSpans)
        analysisMs += selfMs[n];
    const double observeMs = selfMs["control.observe"];
    const double attributed = coreMs + analysisMs + observeMs;
    const double events = static_cast<double>(counts.events.load());
    const double committed = static_cast<double>(counts.simCommitted.load());

    std::vector<std::pair<std::string, double>> m = {
        {"analysis.depgraph_ms", selfMs["analysis.depgraph"]},
        {"analysis.shake_ms", selfMs["analysis.shake"]},
        {"analysis.cluster_ms", selfMs["analysis.cluster"]},
        {"analysis.calls", static_cast<double>(counts.analysisCalls)},
        {"analysis.events", events},
        {"analysis.ns_per_event", events ? analysisMs * 1e6 / events : 0.0},
        {"analysis.share_pct",
         attributed ? 100.0 * analysisMs / attributed : 0.0},
        {"trace.records", static_cast<double>(counts.traceRecords)},
        {"trace.mb", static_cast<double>(counts.traceRecords) *
                         sizeof(InstTrace) / (1024.0 * 1024.0)},
        {"core.profile_ms", selfMs["core.profile"]},
        {"core.baseline_ms", selfMs["core.baseline"]},
        {"core.replay_ms", selfMs["core.replay"]},
        {"core.ctrl_ms", selfMs["core.ctrl"]},
        {"core.global_ms", selfMs["core.global"]},
        {"core.global_probes", static_cast<double>(counts.globalProbes)},
        {"core.ns_per_inst", committed ? coreMs * 1e6 / committed : 0.0},
        {"core.ff_frac",
         committed ? static_cast<double>(counts.ffExecuted) / committed
                   : 0.0},
        {"control.observe_calls", static_cast<double>(counts.observeCalls)},
        {"control.observe_ms", observeMs},
        {"control.requests", static_cast<double>(counts.requests)},
        {"pool.tasks", static_cast<double>(counts.poolTasks)},
        {"pool.exclusive_ms", poolExclusiveMs},
        {"pool.queue_wait_ms",
         static_cast<double>(counts.queueWaitNs) * 1e-6},
        {"pool.par_eff", cpuS * 1e3 / (wallMs * lanes)},
        {"workloads.build_ms", selfMs["workloads.build"]},
        {"config.resolve_ms", selfMs["config.resolve"]},
        {"expcache.read_ms", selfMs["expcache.read"]},
        {"expcache.write_ms", selfMs["expcache.write"]},
        {"expcache.kb", static_cast<double>(cacheBytes) / 1024.0},
        {"render.json_ms", selfMs["render.json"]},
        {"tracing.wall_ms", wallMs},
        {"tracing.ref_wall_ms", refWallMs},
        {"tracing.overhead_pct", 100.0 * (wallMs - refWallMs) / refWallMs},
        {"tracing.lanes", static_cast<double>(lanes)},
        // Everything in lanes x wall not charged to a layer above:
        // pool and driver glue, and idle lanes.
        {"tracing.unattributed_ms", wallMs * lanes - attributed},
    };

    if (!a.spansPath.empty())
        writeSpans(a.spansPath, spans);

    std::string metrics;
    for (const auto &[k, v] : m) {
        if (!metrics.empty())
            metrics += ", ";
        metrics += jsonString(k) + ": " + jsonNumber(v);
    }
    std::printf("{\"mode\": \"trace\", \"workload\": %s, \"seed\": %llu, "
                "\"jobs\": %d, \"legs_attempted\": %zu, "
                "\"legs_failed\": %zu, \"failures\": %s, "
                "\"metrics\": {%s}}\n",
                jsonString(a.workload->name).c_str(),
                static_cast<unsigned long long>(a.seed), jobs, compared,
                mismatched.size(), failuresJson(bad).c_str(),
                metrics.c_str());
    return bad.empty() ? 0 : 1;
}

} // namespace
} // namespace mcd

int
main(int argc, char **argv)
{
    const std::int64_t mainNs = mcd::monoNs();
    mcd::Args args = mcd::parseArgs(argc, argv);
    try {
        if (args.mode == "time")
            return mcd::timeMode(args,
                                 args.spawnNs >= 0 ? args.spawnNs : mainNs);
        return mcd::traceMode(args);
    } catch (const mcd::FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 2;
    }
}
