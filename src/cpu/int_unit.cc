#include "int_unit.hh"

namespace mcd {

void
IntUnit::tick(Tick now)
{
    aluPool.newCycle();
    mulDivPool.newCycle();

    const double period = s.clk[domainIndex(Domain::Integer)]->period();
    int issued = 0;
    bool anyIssued = false;

    for (auto &ent : p.intIq) {
        if (issued >= s.cfg.intIssueWidth)
            break;
        DynInst *in = ent.value;
        if (in->issued)
            continue;
        if (!p.intIq.probe(ent, now))
            continue;

        Opcode op = in->inst.op;
        bool isAddrGen = isMem(op);

        // Address generation needs only the base register.
        bool ready = isAddrGen
            ? p.results.ready(in->src1Phys, in->src1Fp,
                              Domain::Integer, now)
            : (p.results.ready(in->src1Phys, in->src1Fp,
                               Domain::Integer, now) &&
               p.results.ready(in->src2Phys, in->src2Fp,
                               Domain::Integer, now));
        if (!ready)
            continue;

        FuPool &pool = isIntMulDiv(op) ? mulDivPool : aluPool;
        if (!pool.canIssue(now))
            continue;

        int lat = isAddrGen ? 1 : execLatency(op);
        // Result is latched at the lat-th integer edge after issue;
        // encode it half a period early so jittered edges compare
        // robustly (see DESIGN.md, completion-time encoding).
        Tick done = now + static_cast<Tick>((lat - 0.5) * period);
        pool.issue(now, done);

        in->issued = true;
        in->cold->issueTime = now;
        in->execDoneTime = done;
        in->executed = true;
        anyIssued = true;

        if (!isAddrGen && in->dest != DestKind::None) {
            s.produceResult(in, done, Domain::Integer);
            s.chargePower(Unit::IntRegWrite);
        }

        s.chargePower(Unit::IntIqIssue);
        s.chargePower(isIntMulDiv(op) ? Unit::IntMulDiv : Unit::IntAlu);
        int reads = (in->src1Phys != noReg && !in->src1Fp ? 1 : 0) +
            (in->src2Phys != noReg && !in->src2Fp ? 1 : 0);
        s.chargePower(Unit::IntRegRead, reads);

        // The issue-queue slot frees at issue; the credit crosses back
        // to the front end.
        p.intIqCredits.give(now);
        ++issued;
    }

    if (anyIssued) {
        p.intIq.eraseIf([](const SyncPort<DynInst *>::Entry &e) {
            return e.value->issued;
        });
    }
}

} // namespace mcd
