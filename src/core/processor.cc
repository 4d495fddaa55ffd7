#include "processor.hh"

#include <cctype>
#include <string>

#include "common/log.hh"
#include "fault/fault_plan.hh"

namespace mcd {

McdProcessor::McdProcessor(const SimConfig &config, const Program &program)
    : cfg(config), prog(program), oracle(prog)
{
    cfg.validate();

    bool mcd = cfg.clocking == ClockingStyle::Mcd;

    if (mcd) {
        for (int d = 0; d < numDomains; ++d) {
            ownedClocks.push_back(std::make_unique<ClockDomain>(
                static_cast<Domain>(d), cfg.domainFrequency[d],
                cfg.seed * 7919 + d * 104729 + 13,
                cfg.jitterSigmaPs, true));
            clocks[d] = ownedClocks.back().get();
        }
    } else {
        ownedClocks.push_back(std::make_unique<ClockDomain>(
            Domain::FrontEnd, cfg.domainFrequency[0],
            cfg.seed * 7919 + 13, cfg.jitterSigmaPs, true));
        for (int d = 0; d < numDomains; ++d)
            clocks[d] = ownedClocks.front().get();
    }

    // Initial voltages follow the frequency/voltage map.
    for (int d = 0; d < numDomains; ++d)
        clocks[d]->setVoltage(opTable.voltageFor(clocks[d]->frequency()));

    SyncRule icMissRule = SyncRule::forMaxFrequency(
        mcd, opTable.maxFrequency(), cfg.syncFraction);
    memory = std::make_unique<MemoryHierarchy>(
        cfg.mem, *clocks[domainIndex(Domain::FrontEnd)],
        *clocks[domainIndex(Domain::LoadStore)], icMissRule);

    power = std::make_unique<PowerModel>(cfg.energy, clocks);

    pipe = std::make_unique<CoreUnits>(
        cfg.core, oracle, *memory, clocks, cfg.syncFraction, power.get(),
        cfg.collectTrace ? &collector : nullptr, cfg.maxInstructions);

    if (cfg.sampling) {
        samplingPolicy = std::make_unique<SamplingPolicy>(*cfg.sampling,
                                                          power.get());
        pipe->bindSampling(samplingPolicy.get());
    }

    obs::TelemetryConfig tc = cfg.telemetry;
    // Sampled invariants (queue_fill, energy_decreasing) need the
    // periodic stream: an invariants-only config gets the default
    // sampling period rather than silently checking nothing.
    if (!tc.invariants.empty() && tc.samplePeriod == 0)
        tc.samplePeriod = fromMicroseconds(10.0);
    if (tc.enabled())
        telem = std::make_shared<obs::Telemetry>(tc);

    bool misorder =
        cfg.faults && cfg.faults->misordersLeg(cfg.faultSite);
    if (mcd) {
        DvfsParams dp = DvfsParams::forKind(cfg.dvfs, cfg.dvfsTimeScale);
        for (int d = 0; d < numDomains; ++d) {
            dvfs[d] = std::make_unique<DomainDvfs>(
                dp, opTable, *clocks[d],
                cfg.seed * 31337 + d * 271 + 7);
            if (telem)
                dvfs[d]->attachTelemetry(telem.get());
            if (misorder)
                dvfs[d]->injectVfMisorder();
        }
    }

    // Resolve the control plane: an explicit controller wins; a bare
    // schedule is wrapped in the behavior-preserving replay controller.
    if (cfg.controller) {
        mcdAssert(!cfg.schedule,
                  "SimConfig: set either controller or schedule, not both");
        controller = cfg.controller;
    } else if (cfg.schedule) {
        ownedController =
            std::make_unique<ScheduleController>(*cfg.schedule);
        controller = ownedController.get();
    }
}

/**
 * One controller step for domain @p d at edge time @p now: drain the
 * pipeline's occupancy window into an observation, then forward every
 * request the controller produced to the matching transition engine.
 * Engines that accepted a request get their wake latch refreshed so
 * the domain's edges service the new transition on time.
 */
void
McdProcessor::observeAndControl(Domain d, int di, Tick now)
{
    DomainStats s{d, pipe->takeOccupancyWindow(d), clocks[di]->frequency()};
    controller->observe(s, now);

    if (!controller->requests().empty()) {
        for (const FreqRequest &q : controller->requests()) {
            if (telem) {
                telem->onControllerDecision(controller->name(), q.domain,
                                            now, q.frequency);
            }
            int qi = domainIndex(q.domain);
            if (DomainDvfs *engine = dvfs[qi].get()) {
                engine->requestFrequency(now, q.frequency);
                dvfsWake[qi] = engine->nextEventTime();
            }
        }
        controller->clearRequests();
    }
    nextObserve[di] = controller->nextObservation(d, now);
}

/** Snapshot all domains for the periodic telemetry sampler. */
void
McdProcessor::captureSample(Tick now)
{
    obs::TimeSample s;
    s.when = now;
    for (int d = 0; d < numDomains; ++d) {
        Domain dom = static_cast<Domain>(d);
        s.frequency[d] = clocks[d]->frequency();
        s.voltage[d] = clocks[d]->voltage();
        int cap = pipe->queueCapacity(dom);
        s.occupancy[d] = cap > 0
            ? static_cast<double>(pipe->queueLength(dom)) /
                  static_cast<double>(cap)
            : 0.0;
        s.energy[d] = power->domainEnergy(dom);
    }
    telem->onSample(s);
}

[[noreturn]] void
McdProcessor::watchdogTripNow(const std::string &why, Tick at)
{
    if (telem)
        telem->onWatchdogTrip(at);
    throw WatchdogError(
        "McdProcessor watchdog: " + why + " at t=" + formatTick(at) +
        " after " + std::to_string(pipe->committed()) + " commits" +
        (stallInjected ? " [injected stall]" : ""));
}

/**
 * Lazy no-progress watchdog: instead of comparing the commit counter
 * at every edge, the edges are counted and this checkpoint runs
 * once per watchdogNoProgressEdges+1 of them. A window that ends with
 * the commit counter unchanged (or with an injected stall armed) trips
 * with the same message, tick, and edge count as the legacy per-edge
 * check for a run that never progresses; a run that progresses and
 * then deadlocks trips within two windows instead of exactly one —
 * an observable difference only in already-failing runs.
 */
void
McdProcessor::progressCheckpoint(Tick t)
{
    if (stallInjected || pipe->committed() == progressCommits) {
        watchdogTripNow("no commit progress for " +
                        std::to_string(edgeCount - progressBaseEdge) +
                        " edges (deadlock?)", t);
    }
    progressCommits = pipe->committed();
    progressBaseEdge = edgeCount;
    nextProgressCheck = edgeCount + cfg.watchdogNoProgressEdges + 1;
}

/** One MCD domain edge: DVFS service, controller step, domain work. */
void
McdProcessor::domainEdge(Domain d, int di, Tick t)
{
    bool blocked = false;
    if (DomainDvfs *dv = dvfs[di].get()) {
        if (t >= dvfsWake[di]) {
            dv->update(t);
            dvfsWake[di] = dv->nextEventTime();
        }
        if (controller && t >= nextObserve[di])
            observeAndControl(d, di, t);
        blocked = dv->executionBlocked(t);
    }
    if (!blocked)
        pipe->tickDomain(d, t);
    power->domainCycle(d, blocked);
    freqAcc[di].edge(t, clocks[di]->frequency());

    if (++edgeCount >= nextProgressCheck)
        progressCheckpoint(t);
}

/** One shared-clock edge: all four logical domains in pipeline order. */
void
McdProcessor::globalEdge(Tick t)
{
    for (int d = 0; d < numDomains; ++d) {
        pipe->tickDomain(static_cast<Domain>(d), t);
        power->domainCycle(static_cast<Domain>(d), false);
        freqAcc[d].edge(t, clocks[d]->frequency());
    }
    if (++edgeCount >= nextProgressCheck)
        progressCheckpoint(t);
}

RunResult
McdProcessor::run()
{
    bool mcd = cfg.clocking == ClockingStyle::Mcd;

    for (int d = 0; d < numDomains; ++d) {
        freqAcc[d] = obs::FreqAccumulator(clocks[d]->now(),
                                          clocks[d]->frequency());
        dvfsWake[d] = dvfs[d] ? dvfs[d]->nextEventTime() : neverTick;
    }

    if (telem) {
        std::array<Hertz, numDomains> f0;
        std::array<Volt, numDomains> v0;
        for (int d = 0; d < numDomains; ++d) {
            f0[d] = clocks[d]->frequency();
            v0[d] = clocks[d]->voltage();
        }
        telem->onRunStart(f0, v0);
    }

    // A kept trace never regrows; a streamed one holds only the
    // intervals still open.
    if (cfg.collectTrace && !collector.streaming())
        collector.reserve(traceReserveRecords);

    // An armed Stall fault suppresses the progress signal, so the run
    // looks deadlocked to the watchdog and must be cut cleanly.
    stallInjected = cfg.faults && cfg.faults->stallsLeg(cfg.faultSite);
    edgeCount = 0;
    progressBaseEdge = 0;
    progressCommits = 0;
    nextProgressCheck = cfg.watchdogNoProgressEdges
        ? cfg.watchdogNoProgressEdges + 1 : ~std::uint64_t{0};

    // One pending edge per clock: four in MCD mode, one shared clock
    // otherwise. Each iteration fires the earliest (the lowest domain
    // index on a tie, so coincident edges tick in pipeline order),
    // then takes a sample or trips the budget at the first edge at or
    // after its due tick, observing the state after that edge.
    const int numClocks = static_cast<int>(ownedClocks.size());
    std::array<Tick, numDomains> nextEdge{};
    for (int d = 0; d < numClocks; ++d)
        nextEdge[d] = clocks[d]->peekNextEdge();
    Tick sampleDue = telem ? telem->sampler().nextDue() : neverTick;

    while (!pipe->stopRequested()) {
        int d = 0;
        for (int i = 1; i < numClocks; ++i) {
            if (nextEdge[i] < nextEdge[d])
                d = i;
        }
        Tick t = clocks[d]->advance();
        if (mcd)
            domainEdge(static_cast<Domain>(d), d, t);
        else
            globalEdge(t);
        nextEdge[d] = clocks[d]->peekNextEdge();

        if (t >= sampleDue) {
            captureSample(t);
            sampleDue = telem->sampler().nextDue();
        }
        if (cfg.watchdogMaxTicks && t > cfg.watchdogMaxTicks)
            watchdogTripNow("simulated-time budget exhausted", t);
    }

    collector.flush();

    // Assemble the result.
    RunResult r;
    r.benchmark = prog.name();
    r.committed = pipe->committed();
    r.execTime = pipe->lastCommitTime();
    std::uint64_t feCycles =
        clocks[domainIndex(Domain::FrontEnd)]->cycles();
    r.ipc = feCycles
        ? static_cast<double>(r.committed) / static_cast<double>(feCycles)
        : 0.0;
    r.totalEnergy = power->totalEnergy();
    r.energyDelay = r.totalEnergy * toSeconds(r.execTime);
    r.pipeline = pipe->stats();
    r.l1i = memory->l1i().stats();
    r.l1d = memory->l1d().stats();
    r.l2 = memory->l2().stats();
    r.bpredLookups = pipe->bpred().stats().lookups;
    r.bpredMispredictRate = pipe->bpred().stats().mispredictRate();

    for (int d = 0; d < numDomains; ++d) {
        DomainSummary &s = r.domains[d];
        s.cycles = clocks[d]->cycles();
        if (!mcd)
            s.cycles = ownedClocks[0]->cycles();
        s.energy = power->domainEnergy(static_cast<Domain>(d));
        s.avgFrequency = freqAcc[d].span()
            ? freqAcc[d].average() : clocks[d]->frequency();
        s.minFrequency = freqAcc[d].minimum();
        s.maxFrequency = freqAcc[d].maximum();
        if (mcd && dvfs[d])
            s.reconfigurations = dvfs[d]->reconfigurations();
    }

    if (samplingPolicy) {
        // Fold the extrapolated fast-forward contribution in. IPC is
        // left as the *measured* detailed-mode value (commits per
        // front-end cycle actually simulated); time, energy, and the
        // instruction count cover the whole dynamic stream.
        SamplingSummary ss = samplingPolicy->summary(r.committed);
        r.sampling = ss;
        r.committed += ss.ffExecuted;
        r.execTime += ss.estFfTimePs;
        r.totalEnergy += ss.estFfEnergy;
        for (int d = 0; d < numDomains; ++d)
            r.domains[d].energy += ss.estFfEnergyDomain[d];
        r.energyDelay = r.totalEnergy * toSeconds(r.execTime);
    }

    if (telem) {
        telem->onRunEnd(r.execTime);
        publishSummaryStats(r);
        r.telemetry = telem;
    }
    return r;
}

/**
 * Fold the run's end-of-run summary into the stats registry so the
 * stats JSON stands alone: per-domain cycle/energy/frequency summaries
 * plus the pipeline and control-plane aggregates, alongside the
 * event-driven counters the hooks accumulated during the run.
 */
void
McdProcessor::publishSummaryStats(const RunResult &r)
{
    obs::StatsRegistry &reg = telem->stats();

    reg.counter("run.committed", "committed instructions")
        .inc(r.committed);
    reg.gauge("run.exec_time_ps", "time of the last commit")
        .set(static_cast<double>(r.execTime));
    reg.gauge("run.ipc", "committed per front-end cycle").set(r.ipc);
    reg.gauge("run.energy_j", "total energy").set(r.totalEnergy);

    for (int d = 0; d < numDomains; ++d) {
        std::string p = "domain.";
        for (const char *c = domainShortName(static_cast<Domain>(d));
             *c; ++c) {
            p += static_cast<char>(
                std::tolower(static_cast<unsigned char>(*c)));
        }
        p += '.';
        const DomainSummary &s = r.domains[d];
        reg.counter(p + "cycles", "domain clock edges").inc(s.cycles);
        reg.gauge(p + "energy_j", "domain energy").set(s.energy);
        reg.gauge(p + "avg_mhz", "time-weighted mean frequency")
            .set(s.avgFrequency / 1e6);
        reg.gauge(p + "min_mhz", "lowest frequency seen")
            .set(s.minFrequency / 1e6);
        reg.gauge(p + "max_mhz", "highest frequency seen")
            .set(s.maxFrequency / 1e6);
        reg.counter(p + "reconfigurations",
                    "target changes accepted by the DVFS engine")
            .inc(s.reconfigurations);
    }

    const PipelineStats &ps = r.pipeline;
    reg.counter("pipeline.fetched", "instructions fetched")
        .inc(ps.fetched);
    reg.counter("pipeline.mispredicts", "branch mispredictions")
        .inc(ps.mispredicts);
    reg.counter("pipeline.sync.commit_stalls",
                "commit blocked on a cross-domain completion signal")
        .inc(ps.syncCommitStalls);
    reg.counter("pipeline.sync.dispatch_waits",
                "queue entries not yet visible across a boundary")
        .inc(ps.syncDispatchWaits);
    reg.counter("pipeline.sync.addr_waits",
                "LSQ waits on an address from the integer domain")
        .inc(ps.syncAddrWaits);

    // Memory-layout proof points: the pre-sized structures must not
    // touch the allocator in steady state (grows == 0) and the window
    // arena must bound the in-flight count.
    reg.gauge("pipeline.window.peak",
              "in-flight instruction high-water mark")
        .set(static_cast<double>(pipe->windowHighWater()));
    reg.gauge("pipeline.window.capacity",
              "instruction-window arena slots")
        .set(static_cast<double>(pipe->windowCapacity()));
    reg.counter("pipeline.ports.ring_grows",
                "ring reallocations forced by undersized reservations")
        .inc(pipe->ringGrows());
    // The key predates the run loop; it still counts the run's event
    // sources: one per clock, plus the sampler and the time budget
    // when they are on.
    std::size_t sources = ownedClocks.size();
    if (telem->sampler().enabled())
        ++sources;
    if (cfg.watchdogMaxTicks && cfg.watchdogMaxTicks != neverTick)
        ++sources;
    reg.gauge("sched.heap.peak", "clocks plus sampler plus time budget")
        .set(static_cast<double>(sources));

    if (r.sampling) {
        const SamplingSummary &ss = *r.sampling;
        reg.counter("run.sampling.windows",
                    "completed detailed measurement windows")
            .inc(ss.windows);
        reg.counter("run.sampling.detailed_committed",
                    "instructions committed in detail")
            .inc(ss.detailedCommitted);
        reg.counter("run.sampling.ff_executed",
                    "instructions fast-forwarded functionally")
            .inc(ss.ffExecuted);
        reg.gauge("run.sampling.est_ff_time_ps",
                  "extrapolated fast-forward time")
            .set(static_cast<double>(ss.estFfTimePs));
        reg.gauge("run.sampling.est_ff_energy_j",
                  "extrapolated fast-forward energy")
            .set(ss.estFfEnergy);
        reg.gauge("run.sampling.time_per_inst_cv",
                  "window time-per-inst coefficient of variation")
            .set(ss.timePerInstCv);
        reg.gauge("run.sampling.energy_per_inst_cv",
                  "window energy-per-inst coefficient of variation")
            .set(ss.energyPerInstCv);
    }

    if (controller) {
        std::string p = "control.";
        p += controller->name();
        reg.counter(p + ".requests_issued",
                    "frequency requests emitted by the policy")
            .inc(controller->requestsIssued());
    }
}

} // namespace mcd
