/**
 * @file
 * State shared by the four per-domain execution units, and the typed
 * synchronization ports wiring them together.
 *
 * The units (front_end_unit / issue_unit / ls_unit) model the paper's
 * GALS machine: each owns the structures clocked by its
 * domain and touches another domain's work only through the ports in
 * DomainPorts, where the SyncRule of the (source, destination) pair
 * is applied and blocked probes are counted. CoreShared carries the
 * genuinely global machine state: the in-flight instruction window
 * (allocated at fetch, reclaimed at commit), the rename/scoreboard
 * state the result bus reads, and the references to the oracle,
 * memory hierarchy, power model, and trace collector.
 *
 * The integer and FP halves of the machine are one structure at two
 * sizes, so their paired state is an array indexed by register class
 * (regClass): the rename state, the issue queues, and their credit
 * channels.
 */

#ifndef MCD_CPU_CORE_SHARED_HH
#define MCD_CPU_CORE_SHARED_HH

#include <array>
#include <vector>

#include "clock/clock_domain.hh"
#include "clock/sync.hh"
#include "common/ring_buffer.hh"
#include "cpu/dyn_inst.hh"
#include "cpu/inst_window.hh"
#include "cpu/params.hh"
#include "cpu/pipeline_stats.hh"
#include "cpu/regfile.hh"
#include "isa/executor.hh"
#include "mem/hierarchy.hh"
#include "power/power_model.hh"
#include "trace/trace.hh"

namespace mcd {

class SamplingPolicy;   // core/sampling.hh; only sampled runs bind one

/** Register classes: 0 integer, 1 floating point. A DynInst's
 *  src1Fp/src2Fp flag is a class index as it stands. */
inline constexpr int numRegClasses = 2;

/** The register class a destination of kind @p k is renamed in. */
inline int regClass(DestKind k) { return k == DestKind::Fp ? 1 : 0; }

/** One RenameState per register class. */
using RenameFiles = std::array<RenameState, numRegClasses>;

/**
 * Register-result visibility across domains: a consumer may read a
 * physical register only once the producing domain's write has
 * crossed under the (producer, consumer) rule. The producer identity
 * lives in the rename scoreboard, so this port reads RenameState and
 * applies the rule — the one boundary crossing that is a broadcast
 * (any domain to any domain) rather than a point-to-point queue.
 */
class ResultBus
{
  public:
    explicit ResultBus(const RenameFiles &rename_) : rename(rename_) {}

    void
    setRule(Domain from, Domain to, SyncRule rule)
    {
        rules[domainIndex(from)][domainIndex(to)] = rule;
    }

    /** May @p consumer read physical register @p phys at @p now? */
    bool
    ready(int phys, bool is_fp, Domain consumer, Tick now) const
    {
        if (phys == noReg)
            return true;
        const RenameState &rs = rename[is_fp];
        if (!rs.isReady(phys))
            return false;
        return rules[domainIndex(rs.producedBy(phys))]
                    [domainIndex(consumer)]
            .visible(rs.readyAt(phys), now);
    }

  private:
    const RenameFiles &rename;
    std::array<std::array<SyncRule, numDomains>, numDomains> rules{};
};

/**
 * Every inter-unit wire of the machine. Constructed by CoreUnits once
 * the rule matrix is known; the units hold references.
 */
struct DomainPorts
{
    DomainPorts(const RenameFiles &rename, int int_iq_size, int fp_iq_size,
                int lsq_capacity)
        : iqCredits{CreditReturnChannel(SyncRule(false, 0), int_iq_size),
                    CreditReturnChannel(SyncRule(false, 0), fp_iq_size)},
          results(rename)
    {
        // Pre-size every bounded queue so the steady state never
        // touches the allocator (growth is counted; see stats()).
        for (int c = 0; c < numRegClasses; ++c) {
            auto n = static_cast<std::size_t>(c ? fp_iq_size : int_iq_size);
            iq[c].reserve(n);
            iqCredits[c].reserve(n);
        }
        lsq.reserve(static_cast<std::size_t>(lsq_capacity));
    }

    /** Dispatch into the issue queues, by register class, and the LSQ
     *  (front end -> back end). */
    std::array<SyncPort<DynInst *, std::vector>, numRegClasses> iq;
    SyncPort<DynInst *, RingDeque> lsq;

    /** Issue-queue slot returns, by register class (back end -> front
     *  end). */
    std::array<CreditReturnChannel, numRegClasses> iqCredits;

    /** Generated addresses (integer domain -> LSQ). */
    SyncSignal addr;

    /** Completion/resolution signals into the front end (commit gate,
     *  branch-resolution watch). */
    SyncSignalGate completion;

    /** Cross-domain register-result visibility. */
    ResultBus results;
};

/**
 * Machine-global state and environment shared by the four units.
 */
struct CoreShared
{
    CoreShared(const CoreParams &params, Executor &oracle_,
               MemoryHierarchy &memory,
               std::array<ClockDomain *, numDomains> clocks,
               PowerModel *power, TraceCollector *collector)
        : cfg(params), oracle(oracle_), mem(memory), clk(clocks),
          powerModel(power), tracer(collector),
          rename{RenameState(numArchIntRegs, params.physIntRegs),
                 RenameState(numArchFpRegs, params.physFpRegs)},
          window(params.robSize + params.fetchQueueSize)
    {}

    CoreParams cfg;     //!< owned copy: callers may pass temporaries
    Executor &oracle;
    MemoryHierarchy &mem;
    std::array<ClockDomain *, numDomains> clk;
    PowerModel *powerModel;
    TraceCollector *tracer;

    RenameFiles rename;     //!< by register class

    // Instruction window storage (fetch order; popped at commit):
    // a fixed-capacity ring arena with stable slot addresses
    // (capacity = robSize + fetchQueueSize bounds the in-flight
    // count; see inst_window.hh).
    InstWindow window;

    /** Sampling policy for sampled runs; null in full detail. */
    SamplingPolicy *sampling = nullptr;

    Tick lastCommit = 0;
    bool haltCommitted = false;

    /** Everything except the sync-wait counters, which live in the
     *  ports and are folded in at CoreUnits::stats() time. */
    PipelineStats stat;

    void
    chargePower(Unit u, int count = 1)
    {
        if (powerModel && count > 0)
            powerModel->access(u, count);
    }

    /** Publish a register result into the rename scoreboard. */
    void
    produceResult(DynInst *in, Tick when, Domain producer)
    {
        if (in->dest != DestKind::None)
            rename[regClass(in->dest)].markReady(in->destPhys, when, producer);
    }
};

} // namespace mcd

#endif // MCD_CPU_CORE_SHARED_HH
