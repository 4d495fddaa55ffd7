#include "front_end_unit.hh"

#include "common/log.hh"
#include "core/sampling.hh"

namespace mcd {

namespace {

/** Issue-queue write energy, by register class. */
constexpr Unit iqWrite[numRegClasses] = {Unit::IntIqWrite, Unit::FpIqWrite};

} // namespace

void
FrontEndUnit::commitStage(Tick now)
{
    int n = 0;
    while (n < s.cfg.retireWidth && !rob.empty()) {
        DynInst *in = rob.front();

        if (!(in->isMemOp() ? in->memDone : in->executed))
            break;
        if (!p.completion.probe(in->completionDomain(),
                                in->completionTime(), now)) {
            break;
        }

        s.lastCommit = now;

        // No pipeline structure may keep a pointer to a retired
        // instruction: its window slot is reclaimed below.
        if (in->isMemOp()) {
            mcdAssert(!p.lsq.empty() && p.lsq.front().value == in,
                      "LSQ/commit order mismatch");
            p.lsq.popFront();
        }
        if (stallBranch == in) {
            // The branch resolved and committed in the same front-end
            // cycle; begin the redirect penalty now.
            stallBranch = nullptr;
            redirectPenaltyLeft = s.cfg.mispredictPenalty;
        }

        // Free the previous mapping of the destination register.
        if (in->oldDestPhys != noReg)
            s.rename[regClass(in->dest)].release(in->oldDestPhys);
        if (in->isMemOp())
            ++lsqFree;

        s.chargePower(Unit::Rob);
        ++s.stat.committed;
        const OpInfo &info = opInfo(in->inst.op);
        if (info.isLoad())
            ++s.stat.committedLoads;
        else if (info.isStore())
            ++s.stat.committedStores;
        else if (info.iq == RegFile::Fp)
            ++s.stat.committedFp;
        else if (info.isControl() && in->mispredicted)
            ++s.stat.mispredicts;

        recordTrace(in);

        if (in->inst.op == Opcode::HALT)
            s.haltCommitted = true;

        rob.pop_front();
        mcdAssert(!s.window.empty() && &s.window.front() == in,
                  "commit out of window order");
        s.window.pop_front();
        ++n;
        if (s.haltCommitted)
            break;
    }
}

void
FrontEndUnit::renameDispatchStage(Tick now)
{
    int n = 0;
    while (n < s.cfg.decodeWidth && !fetchQueue.empty()) {
        DynInst *in = fetchQueue.front();
        // Fetch-queue entries become readable the cycle after the
        // I-cache delivers them.
        if (now <= in->fetchTime)
            break;
        if (!dispatchOne(in, now))
            break;
        fetchQueue.pop_front();
        ++n;
    }
}

bool
FrontEndUnit::dispatchOne(DynInst *in, Tick now)
{
    const Inst &inst = in->inst;
    const OpInfo &info = opInfo(inst.op);

    if (static_cast<int>(rob.size()) >= s.cfg.robSize)
        return false;

    // NOP and HALT occupy no issue queue: they complete in the front
    // end.
    bool queued = info.iq != RegFile::None;
    int iq = regClass(info.iq);
    bool needLsq = info.isMem();
    RegFile dk = liveFile(info.dest, inst.rd);

    if (dk != RegFile::None && !s.rename[regClass(dk)].hasFree())
        return false;
    if (queued && p.iqCredits[iq].credits(now) <= 0)
        return false;
    if (needLsq && lsqFree <= 0)
        return false;

    // Rename sources; each reads the integer file, the FP file, or
    // nothing.
    if (RegFile f1 = liveFile(info.src1, inst.rs1); f1 != RegFile::None) {
        int c1 = regClass(f1);
        in->src1Phys = s.rename[c1].lookup(inst.rs1);
        in->src1Fp = c1;
        in->cold->src1Producer = s.rename[c1].lastWriterSeq(inst.rs1);
    }
    if (RegFile f2 = liveFile(info.src2, inst.rs2); f2 != RegFile::None) {
        int c2 = regClass(f2);
        in->src2Phys = s.rename[c2].lookup(inst.rs2);
        in->src2Fp = c2;
        in->cold->src2Producer = s.rename[c2].lastWriterSeq(inst.rs2);
    }

    // Rename destination.
    in->dest = dk;
    if (dk != RegFile::None) {
        auto [phys, old] = s.rename[regClass(dk)].allocate(inst.rd, in->seq);
        in->destPhys = phys;
        in->oldDestPhys = old;
    }

    in->dispatchTime = now;
    rob.push_back(in);

    s.chargePower(Unit::Rename);
    s.chargePower(Unit::Rob);
    s.chargePower(Unit::FetchQueue);

    if (queued) {
        p.iq[iq].push(in, now);
        p.iqCredits[iq].take();
        s.chargePower(iqWrite[iq]);
    }
    if (needLsq) {
        p.lsq.push(in, now);
        --lsqFree;
        s.chargePower(Unit::Lsq);
    }

    if (!queued) {
        in->executed = true;
        in->cold->issueTime = now;
        in->execDoneTime = now + 1;
    }
    return true;
}

void
FrontEndUnit::fetchStage(Tick now)
{
    if (haltFetched)
        return;

    // Sampled simulation: while the policy drains toward a
    // fast-forward boundary, fetch is gated so the window empties at
    // a clean architectural point.
    if (s.sampling && s.sampling->fetchGated())
        return;

    // Waiting for a mispredicted branch to resolve: the front end
    // fetches down the wrong path, burning fetch energy to no effect.
    // The resolution watch is a spectator on the completion gate, so
    // it probes without stall accounting.
    if (stallBranch) {
        if (stallBranch->executed &&
            p.completion.probeQuiet(
                opInfo(stallBranch->inst.op).execDomain,
                stallBranch->execDoneTime, now)) {
            stallBranch = nullptr;
            redirectPenaltyLeft = s.cfg.mispredictPenalty;
            wrongPathChargeLeft = 0;
        } else {
            // Wrong-path fetch burns front-end energy only until the
            // fetch queue fills; after that the front end sits gated.
            if (wrongPathChargeLeft > 0) {
                --wrongPathChargeLeft;
                s.chargePower(Unit::Icache);
                s.chargePower(Unit::Bpred);
            }
            return;
        }
    }
    if (redirectPenaltyLeft > 0) {
        --redirectPenaltyLeft;
        return;
    }
    if (now < fetchReadyTime)
        return;

    const std::uint64_t lineMask =
        ~static_cast<std::uint64_t>(s.mem.l1i().params().lineBytes - 1);
    std::uint64_t curLine = 0;
    Tick groupReady = 0;
    int fetched = 0;

    while (fetched < s.cfg.decodeWidth &&
           static_cast<int>(fetchQueue.size()) < s.cfg.fetchQueueSize) {
        std::uint64_t pc = s.oracle.pc();

        if (fetched == 0) {
            MemAccessResult r = s.mem.instFetch(pc, now);
            s.chargePower(Unit::Icache);
            s.chargePower(Unit::Bpred);
            if (!r.l1Hit) {
                // Miss: stall fetch until the line arrives (the line
                // is installed and hits on retry).
                fetchReadyTime = r.ready;
                return;
            }
            curLine = pc & lineMask;
            groupReady = r.ready;
        } else if ((pc & lineMask) != curLine) {
            break;  // next line next cycle
        }

        ExecResult er = s.oracle.step();
        DynInst *in = s.window.emplace_back();
        in->seq = er.seq;
        in->inst = er.inst;
        in->memAddr = er.memAddr;
        in->fetchTime = groupReady;

        Opcode op = er.inst.op;
        if (opInfo(op).isBranch()) {
            BpredLookup look = predictor.predictBranch(er.pc);
            bool correct;
            if (er.taken) {
                correct = look.taken && look.btbHit &&
                    look.target == er.nextPc;
            } else {
                correct = !look.taken;
            }
            in->mispredicted = !correct;
            predictor.update(er.pc, er.taken, er.nextPc, look.taken,
                             true);
        } else if (op == Opcode::JALR) {
            BpredLookup look = predictor.predictIndirect(er.pc);
            in->mispredicted = !(look.btbHit && look.target == er.nextPc);
            predictor.update(er.pc, true, er.nextPc, true, false);
        }
        // JAL: target computed in the decoder; never a misprediction.

        fetchQueue.push_back(in);
        ++fetched;
        ++s.stat.fetched;

        if (er.halted) {
            haltFetched = true;
            break;
        }
        if (in->mispredicted) {
            stallBranch = in;
            wrongPathChargeLeft =
                s.cfg.fetchQueueSize / s.cfg.decodeWidth + 2;
            break;
        }
        if (er.taken)
            break;  // redirect: next group starts at the target
    }
}

void
FrontEndUnit::warmFastForward(const ExecResult &er)
{
    // Keep the predictor's lookup/update sequence identical to the
    // detailed fetch path so its tables train on the skipped stream.
    Opcode op = er.inst.op;
    if (opInfo(op).isBranch()) {
        BpredLookup look = predictor.predictBranch(er.pc);
        predictor.update(er.pc, er.taken, er.nextPc, look.taken, true);
    } else if (op == Opcode::JALR) {
        predictor.predictIndirect(er.pc);
        predictor.update(er.pc, true, er.nextPc, true, false);
    }
}

void
FrontEndUnit::recordTrace(const DynInst *in)
{
    if (!s.tracer)
        return;
    InstTrace t;
    t.seq = in->seq;
    t.op = in->inst.op;
    t.dep1 = in->cold->src1Producer;
    t.dep2 = in->cold->src2Producer;
    t.mispredicted = in->mispredicted;
    t.dispatchTime = in->dispatchTime;
    t.issueTime = in->cold->issueTime;
    t.execDone = in->execDoneTime;
    t.memIssue = in->cold->memIssueTime;
    t.memDone = in->memDoneTime;
    t.memFixed = in->cold->memFixedLat;
    s.tracer->record(t);
}

} // namespace mcd
