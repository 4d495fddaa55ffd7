#include "core_units.hh"

#include <algorithm>

#include "core/sampling.hh"

namespace mcd {

CoreUnits::CoreUnits(const CoreParams &params, Executor &oracle,
                     MemoryHierarchy &memory,
                     std::array<ClockDomain *, numDomains> clocks,
                     double sync_fraction, PowerModel *power,
                     TraceCollector *collector, std::uint64_t commit_cap)
    : shared(params, oracle, memory, clocks, power, collector),
      ports(shared.rename, params.intIssueQueueSize,
            params.fpIssueQueueSize, params.lsqSize),
      fe(shared, ports),
      issue{IssueUnit(shared, ports, IssueSide::of(params, 0)),
            IssueUnit(shared, ports, IssueSide::of(params, 1))},
      lsUnit(shared, ports), commitCap(commit_cap)
{
    // Build the synchronization-rule matrix. T_s is 30% of the period
    // of the highest frequency; 1 GHz is the architectural maximum.
    Hertz fmax = 0.0;
    for (ClockDomain *c : clocks)
        fmax = std::max(fmax, c->frequency());
    std::array<std::array<SyncRule, numDomains>, numDomains> rules;
    for (int from = 0; from < numDomains; ++from) {
        for (int to = 0; to < numDomains; ++to) {
            bool cross = clocks[from] != clocks[to];
            rules[from][to] =
                SyncRule::forMaxFrequency(cross, fmax, sync_fraction);
            ports.results.setRule(domainFromIndex(from),
                                  domainFromIndex(to), rules[from][to]);
        }
    }

    int fe_i = domainIndex(Domain::FrontEnd);
    int int_i = domainIndex(Domain::Integer);
    int ls_i = domainIndex(Domain::LoadStore);

    // Dispatch crosses from the front end into the back-end domains;
    // issue-queue credit returns cross back. Rebind the rule only —
    // the channels were built (and their in-flight rings pre-sized)
    // by the DomainPorts ctor.
    for (int c = 0; c < numRegClasses; ++c) {
        int x = domainIndex(issue[c].domain());
        ports.iq[c].setRule(rules[fe_i][x]);
        ports.iqCredits[c].setRule(rules[x][fe_i]);
    }
    ports.lsq.setRule(rules[fe_i][ls_i]);

    // Generated addresses cross from the integer domain into the LSQ.
    ports.addr.setRule(rules[int_i][ls_i]);

    // Completion/resolution signals cross from each domain into the
    // front end.
    for (int from = 0; from < numDomains; ++from)
        ports.completion.setRule(domainFromIndex(from), rules[from][fe_i]);
}

void
CoreUnits::tickDomain(Domain d, Tick now)
{
    int di = domainIndex(d);
    ++occCycles[di];
    occSum[di] += queueLength(d);

    switch (d) {
      case Domain::FrontEnd:
        fe.tick(now);
        if (shared.sampling)
            driveSampling(now);
        // The commit cap counts fast-forwarded instructions too: a
        // sampled run covers the same dynamic stream as a full-detail
        // run with the same cap.
        if (shared.haltCommitted ||
            (commitCap && shared.stat.committed + ffExecuted() >=
                commitCap)) {
            stopReq = true;
        }
        break;
      case Domain::Integer:
      case Domain::FloatingPoint: issueUnit(d).tick(now); break;
      case Domain::LoadStore: lsUnit.tick(now); break;
    }
}

void
CoreUnits::driveSampling(Tick now)
{
    SamplingPolicy *sp = shared.sampling;
    if (!sp->onFrontEndTick(shared.stat.committed, now,
                            shared.window.empty(), fe.haltSeen())) {
        return;
    }

    // The window drained at an architectural boundary: run one
    // functional fast-forward segment straight on the oracle. The
    // caches and the branch predictor are warmed; no simulated time
    // passes and no power is charged (both are extrapolated from the
    // detailed windows — see SamplingPolicy::summary).
    std::uint64_t budget = sp->ffBudget(commitCap, shared.stat.committed);
    const std::uint64_t lineMask = ~static_cast<std::uint64_t>(
        shared.mem.l1i().params().lineBytes - 1);
    std::uint64_t lastLine = ~std::uint64_t{0};
    std::uint64_t executed = 0;
    bool halted = false;
    while (executed < budget) {
        std::uint64_t pc = shared.oracle.pc();
        std::uint64_t line = pc & lineMask;
        if (line != lastLine) {
            shared.mem.instFetch(pc, now);
            lastLine = line;
        }
        ExecResult er = shared.oracle.step();
        ++executed;
        const OpInfo &info = opInfo(er.inst.op);
        if (info.isMem())
            shared.mem.dataAccess(er.memAddr & ~7ULL, info.isStore(), now);
        fe.warmFastForward(er);
        if (er.halted) {
            halted = true;
            break;
        }
    }
    sp->onFastForwardDone(executed, halted, shared.stat.committed);
    if (halted) {
        // HALT was consumed functionally: no in-flight instruction
        // remains to commit it, so the stop is requested here.
        stopReq = true;
    }
}

std::uint64_t
CoreUnits::ffExecuted() const
{
    return shared.sampling ? shared.sampling->ffExecuted() : 0;
}

std::uint64_t
CoreUnits::ringGrows() const
{
    std::uint64_t n = fe.ringGrows() + ports.lsq.containerGrows();
    for (const CreditReturnChannel &c : ports.iqCredits)
        n += c.grows();
    return n;
}

PipelineStats
CoreUnits::stats() const
{
    PipelineStats st = shared.stat;
    st.syncDispatchWaits = ports.lsq.waits();
    for (const auto &q : ports.iq)
        st.syncDispatchWaits += q.waits();
    st.syncCommitStalls = ports.completion.waits();
    st.syncAddrWaits = ports.addr.waits();
    return st;
}

std::size_t
CoreUnits::queueLength(Domain d) const
{
    switch (d) {
      case Domain::FrontEnd: return fe.robLength();
      case Domain::Integer:
      case Domain::FloatingPoint: return issueUnit(d).queueLength();
      case Domain::LoadStore: return lsUnit.queueLength();
    }
    return 0;
}

int
CoreUnits::queueCapacity(Domain d) const
{
    switch (d) {
      case Domain::FrontEnd: return shared.cfg.robSize;
      case Domain::Integer:
      case Domain::FloatingPoint: return issueUnit(d).queueCapacity();
      case Domain::LoadStore: return shared.cfg.lsqSize;
    }
    return 0;
}

OccupancyWindow
CoreUnits::takeOccupancyWindow(Domain d)
{
    int di = domainIndex(d);
    OccupancyWindow w;
    w.cycles = occCycles[di];
    w.occupancySum = occSum[di];
    w.queueLength = queueLength(d);
    w.capacity = queueCapacity(d);
    occCycles[di] = 0;
    occSum[di] = 0;
    return w;
}

} // namespace mcd
