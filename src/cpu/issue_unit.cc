#include "issue_unit.hh"

namespace mcd {

IssueSide
IssueSide::of(const CoreParams &cfg, int reg_class)
{
    if (reg_class == 0) {
        return {Domain::Integer, 0, cfg.intIssueQueueSize,
                cfg.intIssueWidth, cfg.intAlus, cfg.intMulDivs,
                FuClass::IntMulDiv, Unit::IntRegWrite, Unit::IntIqIssue,
                Unit::IntAlu, Unit::IntMulDiv, Unit::IntRegRead};
    }
    return {Domain::FloatingPoint, 1, cfg.fpIssueQueueSize,
            cfg.fpIssueWidth, cfg.fpAlus, cfg.fpMulDivs,
            FuClass::FpMulDivSqrt, Unit::FpRegWrite, Unit::FpIqIssue,
            Unit::FpAlu, Unit::FpMulDiv, Unit::FpRegRead};
}

void
IssueUnit::tick(Tick now)
{
    aluPool.newCycle();
    mulDivPool.newCycle();

    const double period = s.clk[domainIndex(side.domain)]->period();
    int issued = 0;
    bool anyIssued = false;

    for (auto &ent : iq) {
        if (issued >= side.issueWidth)
            break;
        DynInst *in = ent.value;
        if (in->issued)
            continue;
        if (!iq.probe(ent, now))
            continue;

        // A memory op's execute event only generates its address: the
        // store data and the loaded value belong to its cache access.
        const OpInfo &info = opInfo(in->inst.op);
        bool isAddrGen = info.isMem();
        if (!p.results.ready(in->src1Phys, in->src1Fp, side.domain, now) ||
            (!isAddrGen &&
             !p.results.ready(in->src2Phys, in->src2Fp, side.domain,
                              now))) {
            continue;
        }

        bool isLong = info.fu == side.longOps;
        FuPool &pool = isLong ? mulDivPool : aluPool;
        if (!pool.canIssue(now))
            continue;

        int lat = info.latency;
        // Result is latched at the lat-th edge after issue; encode it
        // half a period early so jittered edges compare robustly (see
        // DESIGN.md, completion-time encoding).
        Tick done = now + static_cast<Tick>((lat - 0.5) * period);
        pool.issue(now, done);

        in->issued = true;
        in->cold->issueTime = now;
        in->execDoneTime = done;
        in->executed = true;
        anyIssued = true;

        // The write is charged to this side's register file even when
        // the result lands in the other (FP compares and FTOI).
        if (!isAddrGen && in->dest != RegFile::None) {
            s.produceResult(in, done, side.domain);
            s.chargePower(side.regWrite);
        }

        s.chargePower(side.iqIssue);
        s.chargePower(isLong ? side.mulDiv : side.alu);
        int reads =
            (in->src1Phys != noReg && in->src1Fp == side.regClass ? 1 : 0) +
            (in->src2Phys != noReg && in->src2Fp == side.regClass ? 1 : 0);
        s.chargePower(side.regRead, reads);

        // The issue-queue slot frees at issue; the credit crosses back
        // to the front end.
        credits.give(now);
        ++issued;
    }

    if (anyIssued) {
        iq.eraseIf([](const SyncPort<DynInst *>::Entry &e) {
            return e.value->issued;
        });
    }
}

} // namespace mcd
