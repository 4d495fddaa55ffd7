/**
 * @file
 * Physical register management: rename maps, free lists, and the
 * cross-domain readiness scoreboard.
 *
 * A result produced in one clock domain becomes visible to a consumer
 * in another only after synchronization (paper Section 2.2); the
 * scoreboard therefore records, per physical register, the completion
 * time and producing domain, and readiness is evaluated against the
 * consumer's clock edge with the appropriate SyncRule.
 */

#ifndef MCD_CPU_REGFILE_HH
#define MCD_CPU_REGFILE_HH

#include <cstdint>
#include <vector>

#include "clock/sync.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "cpu/dyn_inst.hh"
#include "isa/inst.hh"

namespace mcd {

/**
 * One register file's rename state (integer or FP).
 */
class RenameState
{
  public:
    RenameState(int arch_regs, int phys_regs)
    {
        map.resize(arch_regs);
        lastWriter.assign(arch_regs, 0);
        for (int i = 0; i < arch_regs; ++i)
            map[i] = i;
        for (int i = arch_regs; i < phys_regs; ++i)
            freeList.push_back(i);
        ready.assign(phys_regs, true);
        readyTime.assign(phys_regs, 0);
        producer.assign(phys_regs, static_cast<int>(Domain::FrontEnd));
    }

    bool hasFree() const { return !freeList.empty(); }

    /** Current physical mapping of an architectural register. */
    int lookup(int arch) const { return map[arch]; }

    /** Seq of the most recent writer of an architectural register. */
    std::uint64_t lastWriterSeq(int arch) const { return lastWriter[arch]; }

    /**
     * Allocate a new physical register for @p arch; returns
     * {newPhys, oldPhys}.
     */
    std::pair<int, int>
    allocate(int arch, std::uint64_t writer_seq)
    {
        mcdAssert(!freeList.empty(), "rename: no free physical register");
        int phys = freeList.back();
        freeList.pop_back();
        int old = map[arch];
        map[arch] = phys;
        lastWriter[arch] = writer_seq;
        ready[phys] = false;
        readyTime[phys] = 0;
        return {phys, old};
    }

    /** Return a physical register to the free list (at commit). */
    void
    release(int phys)
    {
        freeList.push_back(phys);
    }

    /** Mark a physical register's value produced. */
    void
    markReady(int phys, Tick when, Domain prod)
    {
        ready[phys] = true;
        readyTime[phys] = when;
        producer[phys] = static_cast<int>(prod);
    }

    bool isReady(int phys) const { return ready[phys]; }
    Tick readyAt(int phys) const { return readyTime[phys]; }
    Domain producedBy(int phys) const
    { return static_cast<Domain>(producer[phys]); }

  private:
    std::vector<int> map;
    std::vector<std::uint64_t> lastWriter;
    std::vector<int> freeList;
    std::vector<char> ready;
    std::vector<Tick> readyTime;
    std::vector<int> producer;
};

} // namespace mcd

#endif // MCD_CPU_REGFILE_HH
