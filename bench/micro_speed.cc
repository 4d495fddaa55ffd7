/**
 * @file
 * Google-benchmark microbenchmarks for the simulator infrastructure
 * itself: functional execution, timing simulation, clock edge
 * generation, cache and branch predictor throughput, DAG
 * construction, and the shaker.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"

#include "analysis/analyzer.hh"
#include "clock/clock_domain.hh"
#include "common/thread_pool.hh"
#include "core/experiment.hh"
#include "core/processor.hh"
#include "cpu/bpred.hh"
#include "isa/executor.hh"
#include "mem/cache.hh"
#include "workloads/workloads.hh"

namespace {

using namespace mcd;

void
BM_FunctionalExecution(benchmark::State &state)
{
    Program p = workloads::build("g721", 1);
    std::uint64_t insts = 0;
    for (auto _ : state) {
        Executor ex(p);
        while (!ex.halted())
            ex.step();
        insts += ex.instsExecuted();
    }
    state.counters["inst/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FunctionalExecution)
    ->Apply(benchutil::kernelBenchDefaults);

void
BM_TimingSimulation(benchmark::State &state)
{
    Program p = workloads::build("g721", 1);
    std::uint64_t insts = 0;
    for (auto _ : state) {
        SimConfig cfg;
        cfg.clocking = ClockingStyle::Mcd;
        cfg.maxInstructions = 50000;
        McdProcessor proc(cfg, p);
        RunResult r = proc.run();
        insts += r.committed;
    }
    state.counters["inst/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TimingSimulation)
    ->Apply(benchutil::kernelBenchDefaults);

/**
 * The same 50K-instruction timing run under the default-flavored
 * sampling operating point (10% detailed): the CI gate tracks the
 * sampled kernel's speed alongside the full-detail one.
 */
void
BM_SampledSimulation(benchmark::State &state)
{
    Program p = workloads::build("g721", 1);
    std::uint64_t insts = 0;
    for (auto _ : state) {
        SimConfig cfg;
        cfg.clocking = ClockingStyle::Mcd;
        cfg.maxInstructions = 50000;
        cfg.sampling = SamplingParams{1000, 9000, 250};
        McdProcessor proc(cfg, p);
        RunResult r = proc.run();
        insts += r.committed;
    }
    state.counters["inst/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SampledSimulation)
    ->Apply(benchutil::kernelBenchDefaults);

/**
 * One clock at the paper's 110 ps jitter producing 1M edges: the
 * per-edge jitter draw and period arithmetic alone, no pipeline.
 */
void
BM_ClockEdges(benchmark::State &state)
{
    constexpr int edges = 1000000;
    for (auto _ : state) {
        ClockDomain c(Domain::Integer, 1e9, 42);
        for (int i = 0; i < edges; ++i)
            c.advance();
        benchmark::DoNotOptimize(c.now());
    }
    state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_ClockEdges)
    ->Apply(benchutil::kernelBenchDefaults);

void
BM_CacheAccess(benchmark::State &state)
{
    CacheParams cp;
    cp.sizeBytes = 64 * 1024;
    cp.associativity = 2;
    Cache c(cp);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.access(addr, false));
        addr += 4096 + 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_BranchPredictor(benchmark::State &state)
{
    BranchPredictor bp((BpredParams()));
    std::uint64_t pc = 0x1000;
    bool taken = false;
    for (auto _ : state) {
        BpredLookup l = bp.predictBranch(pc);
        bp.update(pc, taken, pc + 64, l.taken, true);
        taken = !taken;
        pc = 0x1000 + ((pc + 4) & 0xfff);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchPredictor);

void
BM_DagBuild(benchmark::State &state)
{
    Program p = workloads::build("gcc", 1);
    SimConfig cfg;
    cfg.collectTrace = true;
    cfg.maxInstructions = 40000;
    McdProcessor proc(cfg, p);
    proc.run();
    const auto &tr = proc.trace().trace();
    DepGraphConfig gc;
    for (auto _ : state) {
        auto gs = buildIntervalGraphs(tr, gc);
        benchmark::DoNotOptimize(gs.size());
    }
    state.SetItemsProcessed(state.iterations() * tr.size());
}
BENCHMARK(BM_DagBuild)->Unit(benchmark::kMillisecond);

void
BM_Shaker(benchmark::State &state)
{
    Program p = workloads::build("gcc", 1);
    SimConfig cfg;
    cfg.collectTrace = true;
    cfg.maxInstructions = 40000;
    McdProcessor proc(cfg, p);
    proc.run();
    DepGraphConfig gc;
    ShakerConfig sc;
    for (auto _ : state) {
        state.PauseTiming();
        auto gs = buildIntervalGraphs(proc.trace().trace(), gc);
        state.ResumeTiming();
        for (IntervalGraph &g : gs)
            shake(g, sc, 1e9, 250e6);
    }
}
BENCHMARK(BM_Shaker)->Unit(benchmark::kMillisecond);

void
BM_FullOfflineAnalysis(benchmark::State &state)
{
    Program p = workloads::build("art", 1);
    SimConfig cfg;
    cfg.collectTrace = true;
    McdProcessor proc(cfg, p);
    proc.run();
    OfflineAnalyzer analyzer(
        OfflineAnalyzer::configFor(0.05, DvfsKind::XScale, 0.2));
    for (auto _ : state) {
        AnalysisResult r = analyzer.analyze(proc.trace().trace());
        benchmark::DoNotOptimize(r.schedule.size());
    }
}
BENCHMARK(BM_FullOfflineAnalysis)->Unit(benchmark::kMillisecond);

/**
 * The parallel experiment engine on a two-benchmark mini-matrix
 * (per benchmark: baseline, MCD profile, dyn-1%, dyn-5%, global
 * search), uncached, at jobs=1 vs jobs=hardware. Tracks the speedup
 * the thread-pooled runMatrix delivers in the bench trajectory.
 */
void
BM_MatrixMini(benchmark::State &state)
{
    int jobs = static_cast<int>(state.range(0));
    const std::vector<std::string> names{"adpcm", "mst"};
    ExperimentConfig ec;    // empty cacheDir: caching disabled
    for (auto _ : state) {
        auto rows = runMatrix(ec, names, jobs);
        benchmark::DoNotOptimize(rows.data());
    }
    state.counters["jobs"] = jobs;
}
BENCHMARK(BM_MatrixMini)
    ->Arg(1)
    ->Arg(static_cast<int>(ThreadPool::hardwareJobs()))
    ->Unit(benchmark::kSecond)
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
