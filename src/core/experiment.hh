/**
 * @file
 * The experiment runner for the paper's evaluation (Section 4).
 *
 * For one benchmark it produces two fixed reference runs plus a
 * configurable vector of dynamic-control legs. The default leg set is
 * the paper's matrix (Figures 5-7):
 *
 *  - baseline: singly clocked 1 GHz, no scaling (fixed);
 *  - baseline MCD: four domains, all statically at 1 GHz (quantifies
 *    the synchronization cost; doubles as the profiling run) (fixed);
 *  - dyn1 / dyn5: per-domain DVFS driven by the offline tool's
 *    schedule with a 1% / 5% dilation target (schedule-replay legs);
 *  - global: the baseline with a single reduced frequency/voltage:
 *    of the table points a binary search visits, the one whose
 *    degradation is closest to dyn5's (search leg);
 *  - online: per-domain DVFS driven at runtime by the queue-occupancy
 *    attack/decay controller (controller leg).
 *
 * Legs are data, not code: a controller leg names a factory in the
 * ControllerRegistry (src/control/registry.hh), so any registered
 * policy — PID feedback, the cpufreq governor family, the offline-
 * trained table — joins the full evaluation (figures, results JSON,
 * cache, fault sites, telemetry) by appearing in the leg vector.
 * Tournament mode (MCD_TOURNAMENT=1 / --tournament) builds a leg set
 * of the dyn5 oracle plus every registered controller and ranks them
 * on an energy-delay-product leaderboard.
 *
 * Results are cached on disk so the per-figure bench binaries can
 * share one expensive run matrix.
 */

#ifndef MCD_CORE_EXPERIMENT_HH
#define MCD_CORE_EXPERIMENT_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyzer.hh"
#include "common/json_writer.hh"
#include "common/thread_pool.hh"
#include "config/runspec.hh"
#include "control/online_queue.hh"
#include "core/processor.hh"
#include "core/sim_config.hh"
#include "fault/fault_plan.hh"

namespace mcd {

/**
 * One dynamic-control leg of the matrix, as data. The name doubles as
 * the JSON key, the fault/telemetry site suffix ("<bench>/<name>"),
 * and the cache-record tag; the display string is the figure-table
 * column header.
 */
struct LegSpec
{
    enum class Kind : std::uint8_t {
        ScheduleReplay,     //!< offline analyze + replay at `dilation`
        GlobalSearch,       //!< single-clock search matching `reference`
        Controller,         //!< registry-built `controller` + `params`
    };

    std::string name;
    std::string display;    //!< column header (defaults to name)
    Kind kind = Kind::Controller;

    double dilation = 0.0;      //!< ScheduleReplay: dilation target
    std::string reference;      //!< GlobalSearch: leg to match
    std::string controller;     //!< Controller: registry name
    std::string params;         //!< Controller: factory param spec

    /** Convenience constructors for the three kinds. */
    static LegSpec scheduleReplay(std::string name, double dilation,
                                  std::string display = {});
    static LegSpec globalSearch(std::string name, std::string reference,
                                std::string display = {});
    static LegSpec controllerLeg(std::string name,
                                 std::string controller,
                                 std::string params = {},
                                 std::string display = {});

    /**
     * Canonical textual form, exactly round-tripping through
     * fromSpec():
     *
     *   name[~display]=replay:<dilation>
     *   name[~display]=global:<reference>
     *   name[~display]=ctrl:<controller>[@<params>]
     *
     * The display part is omitted when it equals the name (the
     * constructors' default). Doubles are emitted with enough digits
     * to parse back bit-identically. This is the serialization the
     * fuzz shrinker's repro files use, so the round-trip is load-
     * bearing, not cosmetic.
     */
    std::string toSpec() const;

    /** Parse one toSpec()-grammar leg (fatal() on malformed input). */
    static LegSpec fromSpec(const std::string &text);
};

/** A whole leg vector as '|'-joined toSpec() entries. */
std::string legsToSpec(const std::vector<LegSpec> &legs);

/** Parse a '|'-joined leg-vector spec (fatal() on malformed input). */
std::vector<LegSpec> legsFromSpec(const std::string &text);

/** Parameters of one experiment matrix. */
struct ExperimentConfig
{
    int scale = 1;                  //!< workload scale factor
    DvfsKind model = DvfsKind::XScale;
    /** Shrinks DVFS transition times to match shortened windows
     *  while preserving the re-lock-to-interval cost ratio
     *  (DESIGN.md section 4, substitution 2). */
    double dvfsTimeScale = 0.2;
    double dilationLow = 0.01;      //!< dynamic-1% target
    double dilationHigh = 0.05;     //!< dynamic-5% target
    std::uint64_t seed = 1;
    std::string cacheDir;           //!< empty = caching disabled

    /**
     * The dynamic-control legs to run besides the two fixed reference
     * runs. Empty means "decide at runMatrix() time": the tournament
     * set when MCD_TOURNAMENT is on, else defaultLegs(); either is
     * then filtered by MCD_CONTROLLERS. ExperimentRunner resolves an
     * empty vector to defaultLegs() at construction.
     */
    std::vector<LegSpec> legs;

    /**
     * Telemetry channels for every run in the matrix. When any channel
     * is on, the disk cache is bypassed (cached results carry no
     * telemetry). runMatrix() turns this on automatically when
     * MCD_TRACE_OUT or MCD_STATS_OUT is set.
     */
    obs::TelemetryConfig telemetry;

    /**
     * SMARTS-style sampled simulation (core/sampling.hh) for every
     * timing leg except the profiling run, which always runs in full
     * detail (the offline analyzer needs every instruction's trace
     * record). runMatrix() fills this from MCD_SAMPLING when unset.
     * Sampled rows are approximations: they are never written to or
     * served from the result cache, and the operating point is folded
     * into the cache key besides, so a sampled matrix can never alias
     * a full-detail one.
     */
    std::optional<SamplingParams> sampling;

    /** Attack/decay defaults for "online-queue" controller legs. */
    OnlineQueueParams online;

    /**
     * Attempts the per-leg guard makes before recording a failure.
     * Only faults marked transient (injected flaky faults) are
     * retried — a deterministic simulator error would just recur.
     */
    int legAttempts = 2;

    /** Watchdog budgets forwarded into every run's SimConfig. */
    std::uint64_t watchdogNoProgressEdges = 40'000'000;
    Tick watchdogMaxTicks = 0;

    /**
     * Fault-injection plan for this matrix (testing the recovery
     * paths). runMatrix() fills this from MCD_FAULT_PLAN when unset.
     * Benchmarks with armed leg faults bypass the result cache in
     * both directions, so injected results are never stored and
     * cached results never mask an injection.
     */
    std::shared_ptr<const fault::FaultPlan> faults;

    /**
     * Fail fast on out-of-range parameters: fatal() with one message
     * listing *every* violation (see validateAll), not just the first.
     */
    void validate() const;

    /**
     * All violations validate() would report, one message per defect;
     * empty means the configuration is valid. Fuzz triage wants the
     * complete list: a sampled configuration broken along three
     * dimensions is one scenario to minimize, not three serial
     * discoveries.
     */
    std::vector<std::string> validateAll() const;
};

/**
 * The paper's leg set: dyn1, dyn5, global (matched to dyn5), online.
 * Dilations come from @p cfg; results are bit-identical to the
 * pre-registry hard-coded matrix.
 */
std::vector<LegSpec> defaultLegs(const ExperimentConfig &cfg);

/**
 * The tournament leg set: the dyn5 schedule-replay oracle plus one
 * controller leg (factory defaults) per ControllerRegistry entry.
 */
std::vector<LegSpec> tournamentLegs(const ExperimentConfig &cfg);

/** One completed dynamic-control leg. */
struct ControllerLeg
{
    LegSpec spec;
    RunResult run;
    std::size_t scheduleSize = 0;   //!< ScheduleReplay entries
};

/** The matrix runs (plus metadata) for one benchmark. */
struct BenchmarkResults
{
    std::string name;
    RunResult baseline;
    RunResult mcdBaseline;
    std::vector<ControllerLeg> legs;    //!< in ExperimentConfig order
    Hertz globalFrequency = 0.0;        //!< last GlobalSearch leg's pick

    /** The leg named @p leg, or nullptr. */
    const ControllerLeg *findLeg(std::string_view leg) const;

    /** The run of the leg named @p leg (fatal when absent). */
    const RunResult &leg(std::string_view leg) const;

    /** Schedule entries of leg @p leg (0 when absent / not replay). */
    std::size_t scheduleSize(std::string_view leg) const;

    /** Fractional slowdown of @p r relative to the baseline. */
    double
    perfDegradation(const RunResult &r) const
    {
        return static_cast<double>(r.execTime) /
            static_cast<double>(baseline.execTime) - 1.0;
    }

    /** Fractional energy saved relative to the baseline. */
    double
    energySavings(const RunResult &r) const
    {
        return 1.0 - r.totalEnergy / baseline.totalEnergy;
    }

    /** Fractional energy-delay-product improvement. */
    double
    edpImprovement(const RunResult &r) const
    {
        return 1.0 - r.energyDelay / baseline.energyDelay;
    }

    /** Total legs including the two fixed reference runs. */
    std::size_t totalLegs() const { return legs.size() + 2; }

    /** Number of failed legs (0..totalLegs()). */
    std::size_t failedLegs() const;

    /** True when any leg failed. */
    bool anyFailed() const { return failedLegs() != 0; }
};

/**
 * Visit every run of a row in canonical order: the two fixed
 * reference runs, then the leg vector. @p f is called with
 * (name, run).
 */
template <typename F>
void
forEachRun(const BenchmarkResults &r, F &&f)
{
    f(std::string("baseline"), r.baseline);
    f(std::string("mcdBaseline"), r.mcdBaseline);
    for (const ControllerLeg &l : r.legs)
        f(l.spec.name, l.run);
}

/**
 * Process exit codes for matrix drivers. Partial failure (some legs
 * failed, the rest of the matrix completed) is distinct from total
 * failure so callers and CI can tell a degraded result set from a
 * useless one. Code 2 stays reserved for usage/configuration errors.
 */
inline constexpr int exitOk = 0;
inline constexpr int exitPartialFailure = 3;
inline constexpr int exitTotalFailure = 4;

/**
 * An otherwise-clean matrix recorded invariant violations and
 * MCD_INVARIANTS_FATAL=1 is set. Leg failures outrank invariants: a
 * matrix that is both degraded and violating exits 3/4 (the violation
 * records are still in the JSON either way).
 */
inline constexpr int exitInvariantViolation = 5;

/** exitOk / exitPartialFailure / exitTotalFailure for a result set. */
int matrixExitCode(const std::vector<BenchmarkResults> &rows);

/** Total invariant violations recorded across every leg's telemetry. */
std::uint64_t
countInvariantViolations(const std::vector<BenchmarkResults> &rows);

/** True when the invariantsFatal option (MCD_INVARIANTS_FATAL /
 *  --invariants-fatal) resolves true. */
bool invariantsFatalFromEnv();

/**
 * One result-shaping option bound to its ExperimentConfig field: the
 * only place that knows how the option's text maps onto the config.
 * read() parses @p text into @p cfg (fatal, naming @p what, on a
 * malformed value); print() renders the field as the option's
 * canonical text, and reading that text back reproduces the field.
 * An empty text means the option's "unset" value (no sampling, no
 * fault plan, no invariants, no explicit legs); an empty model keeps
 * the config's model.
 */
struct ConfigOption
{
    const char *name;   //!< the registry option name
    void (*read)(ExperimentConfig &cfg, const std::string &what,
                 const std::string &text);
    std::string (*print)(const ExperimentConfig &cfg);

    /** Filled by runMatrix()'s effective-config resolution, and only
     *  into a field the caller left unset; experimentConfigFromSpec()
     *  leaves it alone. */
    bool fillsUnset;
};

/** Every ExperimentConfig-backed option, in registry order. The other
 *  result-shaping options (benchmarks, controllers, tournament) pick
 *  the benchmarks and legs a matrix runs, not a config field. */
const std::vector<ConfigOption> &configOptions();

/** The configOptions() entry named @p name; panics when there is
 *  none. */
const ConfigOption &configOption(std::string_view name);

/**
 * ExperimentConfig populated through configOptions() from a resolved
 * RunSpec, plus cacheDir: every option except the fillsUnset ones
 * (legs, faults and invariants, which runMatrix()'s effective-config
 * resolution fills from the same spec). @p model seeds the DVFS
 * model; a non-empty "model" option overrides it (unknown names are
 * fatal). @p defaultCacheDir applies only while the cacheDir option
 * sits at its default, so an explicitly empty value (MCD_CACHE_DIR=)
 * still disables caching. fatal() (never exit) on malformed domain
 * grammar, so drivers choose their own exit code.
 */
ExperimentConfig
experimentConfigFromSpec(const config::RunSpec &spec,
                         DvfsKind model = DvfsKind::XScale,
                         const std::string &defaultCacheDir = {});

/**
 * Benchmark list for a matrix run: every registered workload, or the
 * comma-separated subset named by the benchmarks option
 * (MCD_BENCHMARKS / --benchmarks). Unknown names are fatal() so a typo
 * cannot silently shrink a figure.
 */
std::vector<std::string>
benchmarkNamesFromSpec(const config::RunSpec &spec);

/**
 * Cache-file serialization for BenchmarkResults (exposed so the cache
 * format itself is testable without running simulations).
 */
namespace expcache {

/** The version string rejected-on-mismatch when reading. */
extern const char *const version;

/**
 * Serialize @p r: the version header, the two reference records, one
 * tagged record per named leg, the "end" sentinel, and a trailing
 * FNV-1a checksum line over everything before it, so bit rot anywhere
 * in the payload is detected (v5).
 */
void write(std::ostream &os, const BenchmarkResults &r);

/**
 * Deserialize one BenchmarkResults; returns nullopt on a version
 * mismatch, truncation, checksum mismatch, or any other malformed
 * content. Leg records come back with name and scheduleSize only
 * (the rest of the LegSpec lives in the config, not the cache); the
 * loader revalidates the leg names against its config's leg set.
 */
std::optional<BenchmarkResults> read(std::istream &is,
                                     const std::string &name);

} // namespace expcache

/**
 * Machine-readable (JSON) emission of matrix results, so trajectory /
 * plotting tooling can consume runMatrix() output without scraping
 * the text tables. runMatrix() also writes this automatically to the
 * path named by the MCD_RESULTS_JSON environment variable.
 */
void writeResultsJson(std::ostream &os, const ExperimentConfig &cfg,
                      const std::vector<BenchmarkResults> &rows);

/**
 * One leaderboard entry: a leg's figures averaged over every
 * benchmark where both it and the baseline completed.
 */
struct LeaderboardRow
{
    LegSpec spec;
    double meanEdpImprovement = 0.0;
    double meanEnergySavings = 0.0;
    double meanPerfDegradation = 0.0;
    std::size_t completed = 0;  //!< benchmarks contributing
    std::size_t failed = 0;     //!< benchmarks where the leg failed
};

/**
 * Rank every dynamic-control leg by mean energy-delay-product
 * improvement, descending (ties broken by leg name). Works on any
 * matrix, not just tournament runs.
 */
std::vector<LeaderboardRow>
computeLeaderboard(const std::vector<BenchmarkResults> &rows);

/**
 * The ranked leaderboard as JSON (schema in EXPERIMENTS.md,
 * "Controller tournament"). runMatrix() writes this automatically to
 * the path named by MCD_LEADERBOARD_JSON.
 */
void writeLeaderboardJson(std::ostream &os, const ExperimentConfig &cfg,
                          const std::vector<BenchmarkResults> &rows);

/** One labeled run for the telemetry writers (run not owned). */
struct NamedRun
{
    std::string name;           //!< e.g. "adpcm/online"
    const RunResult *run = nullptr;
};

/**
 * Emit the telemetry stats of every named run that collected any, as
 * one JSON object: per-run registries keyed by name plus a "merged"
 * registry folding all runs together. When @p matrix is non-null its
 * entries (matrix health counters: failed/retried legs, quarantined
 * cache files) are emitted as an additional "matrix" registry; when
 * @p host is non-null (the host profiler's registry) it is emitted as
 * an additional "host" registry. When @p effectiveConfig is set it
 * writes a trailing "effectiveConfig" value (the provenance-annotated
 * RunSpec block) — runMatrix() passes it, so every matrix stats
 * document records the configuration that produced it.
 */
void writeTelemetryStatsJson(
    std::ostream &os, const std::vector<NamedRun> &runs,
    const obs::StatsRegistry *matrix = nullptr,
    const obs::StatsRegistry *host = nullptr,
    const std::function<void(json::Writer &)> &effectiveConfig = {});

/**
 * Emit one merged Chrome trace (chrome://tracing / Perfetto JSON)
 * with a process per named run, in the given order.
 */
void writeTelemetryTrace(std::ostream &os,
                         const std::vector<NamedRun> &runs);

/**
 * The matrix rows flattened to "bench/leg" names in deterministic
 * row-then-leg order (baseline, mcdBaseline, then the leg vector),
 * for the writers above. runMatrix() writes both documents
 * automatically to the paths named by MCD_STATS_OUT / MCD_TRACE_OUT.
 */
std::vector<NamedRun>
namedRuns(const std::vector<BenchmarkResults> &rows);

/**
 * Runs experiment matrices, with optional on-disk caching.
 *
 * One benchmark is a table of stages, one per run: the baseline, the
 * MCD profiling run (with the offline tool's shake), and one per leg.
 * A stage's inputs are fixed by its kind: a schedule-replay leg reads
 * the profiling run, a global-search leg reads the baseline and then
 * its reference leg, and every other stage reads nothing. Whichever
 * task finishes a stage's last input submits that stage to the pool,
 * so no pool task ever waits; the last stage to finish stores the row
 * in the cache and fulfils the benchmark's future. A stage whose input
 * failed is not run: it records a "dependency" failure naming the run
 * that failed first upstream (its root cause).
 *
 * Thread safety: one runner may be used from many threads at once —
 * the configuration is immutable after construction and cache files
 * are published atomically (write-to-temp + rename), so concurrent
 * benchmarks never interfere.
 */
class ExperimentRunner
{
  public:
    /** An empty cfg.legs vector is resolved to defaultLegs(cfg). */
    explicit ExperimentRunner(ExperimentConfig cfg);

    /** Run (or load from cache) the full matrix for one benchmark. */
    BenchmarkResults runBenchmark(const std::string &name);

    /**
     * Start one benchmark's stage table on @p pool and return its row's
     * future (already ready on a cache hit). Stages run on the pool as
     * their inputs finish; on a zero-worker pool the whole row runs
     * inline before this returns. Every stage simulates an
     * independently constructed, per-run-seeded processor, so the row
     * is bit-identical for any pool. @p pool must outlive the future's
     * completion.
     */
    std::future<BenchmarkResults> startBenchmark(const std::string &name,
                                                 ThreadPool &pool);

    /** startBenchmark(), then a helping wait on @p pool for the row. */
    BenchmarkResults runBenchmark(const std::string &name,
                                  ThreadPool &pool);

    /** Cache file path for @p name (empty when caching is disabled). */
    std::string cachePath(const std::string &name) const;

    const ExperimentConfig &cfg() const { return config; }

    /** Cache files quarantined (renamed *.corrupt) by this runner. */
    std::uint64_t cacheQuarantines() const { return quarantines; }

  private:
    /** One benchmark's stage table in flight (experiment.cc). */
    struct Graph;

    SimConfig makeSimConfig(ClockingStyle style,
                            const std::string &site = {}) const;
    RunResult runOnce(const Program &prog, const SimConfig &sc) const;
    /** The MCD baseline; collects the trace into @p trace_out when
     *  it is not null. */
    RunResult profileLeg(const Program &prog,
                         std::vector<InstTrace> *trace_out,
                         const std::string &site) const;
    RunResult controllerLeg(const Program &prog, const LegSpec &leg,
                            const std::string &site) const;
    OfflineAnalyzer analyzerFor(double target_dilation) const;
    /** Cluster @p shaken at @p target_dilation and replay it; the
     *  schedule's entry count goes to @p schedule_size. */
    RunResult dynamicLeg(const Program &prog, const ShakenTrace &shaken,
                         double target_dilation, const std::string &site,
                         std::size_t &schedule_size) const;
    /**
     * The table point, among those a binary search over degradation
     * visits, whose single-clock degradation is closest to
     * @p reference's (the first visited on a tie): its run, and its
     * frequency in @p frequency. Predicted degradations settle most
     * visits; only the points the prediction cannot settle are
     * simulated (global_search.hh).
     */
    RunResult globalLeg(const Program &prog, const BenchmarkResults &r,
                        const RunResult &reference,
                        const std::string &site, Hertz &frequency) const;

    /**
     * Per-leg isolation: run @p body under a guard that catches
     * FatalError / PanicError / WatchdogError / injected faults /
     * any other exception, retries transient faults up to
     * ExperimentConfig::legAttempts times, and on failure returns a
     * default RunResult carrying a structured RunError instead of
     * propagating — so one dead leg never takes down the matrix.
     * The guard opens a host-profiler slice of kind @p phase: a
     * "simulate" slice is a leg in the host profile's per-leg view,
     * so guarded steps that simulate nothing (the shake) pass their
     * own kind.
     */
    RunResult runGuarded(const std::string &bench,
                         const std::string &leg,
                         const std::function<RunResult()> &body,
                         const char *phase = "simulate") const;

    /** Run (or fail) one stage of @p g, submit the readers it was the
     *  last input of, and finish the row after its last stage. */
    void runStage(const std::shared_ptr<Graph> &g, std::size_t stage,
                  ThreadPool &pool) const;

    /** "<name>-<16 hex>": fnv1a over the canonical text of every
     *  result-shaping option and the online-queue defaults. */
    std::string cacheKey(const std::string &name) const;
    std::optional<BenchmarkResults> loadCache(const std::string &name) const;
    void storeCache(const BenchmarkResults &r) const;

    ExperimentConfig config;

    /** Quarantined-cache-file count (atomic: legs run concurrently). */
    mutable std::atomic<std::uint64_t> quarantines{0};
};

/**
 * Run the matrix for a list of benchmarks across @p jobs concurrent
 * workers (jobs <= 1 runs strictly serially, inline). The calling
 * thread starts every benchmark's stage table on one pool, then
 * collects the rows in the order of @p names, regardless of
 * completion order, with helping waits (so it runs stages too while it
 * collects). The rows are bit-identical for every jobs value.
 *
 * Configuration (resolved through config::RunSpec, so every knob is
 * reachable as env var, config-file key, or CLI flag), beyond the
 * telemetry/sampling/fault options documented on ExperimentConfig:
 * tournament switches an empty cfg.legs to tournamentLegs();
 * controllers filters the leg set by name (unknown names are fatal,
 * enumerating the available legs); leaderboardJson names a path for
 * the ranked leaderboard. Every results/stats document carries an
 * effectiveConfig block recording the resolved result-shaping options
 * with per-option provenance.
 *
 * @param progress print a per-benchmark progress line to stderr
 */
std::vector<BenchmarkResults>
runMatrix(const ExperimentConfig &cfg,
          const std::vector<std::string> &names, int jobs,
          bool progress = false);

} // namespace mcd

#endif // MCD_CORE_EXPERIMENT_HH
