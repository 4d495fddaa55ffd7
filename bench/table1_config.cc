/**
 * @file
 * Reproduces paper Table 1: the architectural parameters of the
 * simulated processor. The values printed here are the library's
 * compiled-in defaults; any drift from the paper is a bug, so each
 * row is asserted before printing.
 */

#include <cstdio>
#include <cstdlib>

#include "bench_util.hh"
#include "common/stats.hh"
#include "cpu/params.hh"
#include "mem/hierarchy.hh"

using namespace mcd;

namespace {

void
require(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "Table 1 mismatch: %s\n", what);
        std::exit(1);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::parseFigureArgs(argc, argv);
    CoreParams c;
    MemParams m;

    require(c.bpred.bimodalSize == 1024, "bimodal size");
    require(c.bpred.l1Size == 1024 && c.bpred.historyBits == 10,
            "PAg level 1");
    require(c.bpred.l2Size == 1024, "PAg level 2");
    require(c.bpred.chooserSize == 4096, "combining predictor");
    require(c.bpred.btbSets == 4096 && c.bpred.btbAssoc == 2, "BTB");
    require(c.mispredictPenalty == 7, "mispredict penalty");
    require(c.decodeWidth == 4, "decode width");
    require(c.intIssueWidth + c.fpIssueWidth == 6, "issue width");
    require(c.retireWidth == 11, "retire width");
    require(m.l1d.sizeBytes == 64 * 1024 && m.l1d.associativity == 2,
            "L1 D-cache");
    require(m.l1i.sizeBytes == 64 * 1024 && m.l1i.associativity == 2,
            "L1 I-cache");
    require(m.l2.sizeBytes == 1024 * 1024 && m.l2.associativity == 1,
            "L2 cache");
    require(m.l1d.latencyCycles == 2, "L1 latency");
    require(m.l2.latencyCycles == 12, "L2 latency");
    require(c.intAlus == 4 && c.intMulDivs == 1, "integer units");
    require(c.fpAlus == 2 && c.fpMulDivs == 1, "FP units");
    require(c.intIssueQueueSize == 20, "int issue queue");
    require(c.fpIssueQueueSize == 15, "FP issue queue");
    require(c.lsqSize == 64, "load/store queue");
    require(c.physIntRegs == 72 && c.physFpRegs == 72,
            "physical registers");
    require(c.robSize == 80, "reorder buffer");

    std::printf("Table 1: Architectural parameters for simulated "
                "processor\n\n");
    TextTable t;
    t.header({"parameter", "value"});
    t.row({"Branch predictor", "comb. of bimodal and 2-level PAg"});
    t.row({"  Level1", "1024 entries, history 10"});
    t.row({"  Level2", "1024 entries"});
    t.row({"  Bimodal predictor size", "1024"});
    t.row({"  Combining predictor size", "4096"});
    t.row({"  BTB", "4096 sets, 2-way"});
    t.row({"Branch Mispredict Penalty", "7"});
    t.row({"Decode Width", "4"});
    t.row({"Issue Width", "6"});
    t.row({"Retire Width", "11"});
    t.row({"L1 Data Cache", "64KB, 2-way set associative"});
    t.row({"L1 Instruction Cache", "64KB, 2-way set associative"});
    t.row({"L2 Unified Cache", "1MB, direct mapped"});
    t.row({"L1 cache latency", "2 cycles"});
    t.row({"L2 cache latency", "12 cycles"});
    t.row({"Integer ALUs", "4 + 1 mult/div unit"});
    t.row({"Floating-Point ALUs", "2 + 1 mult/div/sqrt unit"});
    t.row({"Integer Issue Queue Size", "20 entries"});
    t.row({"Floating-Point Issue Queue Size", "15 entries"});
    t.row({"Load/Store Queue Size", "64"});
    t.row({"Physical Register File Size", "72 integer, 72 floating-point"});
    t.row({"Reorder Buffer Size", "80"});
    std::fputs(t.render().c_str(), stdout);
    std::printf("\nAll parameters verified against compiled defaults.\n");
    return 0;
}
