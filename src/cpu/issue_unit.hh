/**
 * @file
 * Execution-domain unit: one class for the integer domain (20-entry
 * issue queue, 4 ALUs + mul/div unit, and memory address generation,
 * 21264-style AGUs) and the floating-point domain (15-entry issue
 * queue, 2 ALUs + mul/div/sqrt unit). The two differ only in the
 * IssueSide they are built from.
 *
 * Consumes dispatched work from its issue-queue SyncPort (front end
 * -> this domain), reads operands over the cross-domain result bus,
 * and returns issue-queue credits to the front end through the
 * synchronized credit channel.
 */

#ifndef MCD_CPU_ISSUE_UNIT_HH
#define MCD_CPU_ISSUE_UNIT_HH

#include "cpu/core_shared.hh"
#include "cpu/fu_pool.hh"

namespace mcd {

/** What sets one execution domain apart from the other (Table 1). */
struct IssueSide
{
    Domain domain;
    int regClass;       //!< indexes DomainPorts::iq and iqCredits
    int queueSize;
    int issueWidth;
    int alus;           //!< pipelined ALUs
    int mulDivs;        //!< unpipelined long-latency units
    FuClass longOps;    //!< the class those long-latency units execute

    // Power units charged per issue.
    Unit regWrite;
    Unit iqIssue;
    Unit alu;
    Unit mulDiv;
    Unit regRead;

    /** The side of register class @p reg_class (0 integer, 1 FP). */
    static IssueSide of(const CoreParams &cfg, int reg_class);
};

class IssueUnit
{
  public:
    IssueUnit(CoreShared &shared, DomainPorts &ports, const IssueSide &side_)
        : s(shared), p(ports), side(side_),
          iq(ports.iq[side_.regClass]),
          credits(ports.iqCredits[side_.regClass]),
          aluPool(side_.alus, true),
          mulDivPool(side_.mulDivs, false)
    {}

    /** One cycle of this domain at edge time @p now. */
    void tick(Tick now);

    Domain domain() const { return side.domain; }
    std::size_t queueLength() const { return iq.size(); }
    int queueCapacity() const { return side.queueSize; }

  private:
    CoreShared &s;
    DomainPorts &p;
    IssueSide side;
    SyncPort<DynInst *, std::vector> &iq;
    CreditReturnChannel &credits;

    FuPool aluPool;
    FuPool mulDivPool;
};

} // namespace mcd

#endif // MCD_CPU_ISSUE_UNIT_HH
