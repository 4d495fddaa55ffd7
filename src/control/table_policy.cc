#include "table_policy.hh"

#include <algorithm>

#include "common/log.hh"

namespace mcd {

const TablePolicyController::StepTable &
TablePolicyController::trainedTable()
{
    // Rows: occupancy bucket (0 = near empty .. 7 = near full).
    // Columns: trend (falling, flat, rising). Entries are operating-
    // point deltas; +/-32 saturates against the 32-point table.
    static const StepTable t{{
        {{-4, -3, +2}},     // [0, 12.5%): idle — decay hard
        {{-2, -2, +3}},     // [12.5, 25%): light — probe down
        {{-1, -1, +3}},     // [25, 37.5%)
        {{0, 0, +4}},       // [37.5, 50%): settled band — hold
        {{0, 0, +4}},       // [50, 62.5%)
        {{+2, +1, +5}},     // [62.5, 75%): filling — speed up
        {{+4, +3, +6}},     // [75, 87.5%): back pressure building
        {{+32, +32, +32}},  // [87.5%, 1]: saturated — full speed
    }};
    return t;
}

TablePolicyController::TablePolicyController(
    const TablePolicyParams &params, const DvfsTable &table_)
    : TablePolicyController(params, table_, trainedTable())
{}

TablePolicyController::TablePolicyController(
    const TablePolicyParams &params, const DvfsTable &table_,
    const StepTable &steps_)
    : prm(params), table(table_), steps(steps_)
{
    if (prm.interval == 0)
        fatal("TablePolicyParams: interval must be > 0");
    if (!(prm.trendThreshold > 0.0 && prm.trendThreshold < 1.0))
        fatal("TablePolicyParams: trendThreshold must lie in (0, 1)");
    level.fill(-1);
}

void
TablePolicyController::observe(const DomainStats &stats, Tick)
{
    if (stats.domain == Domain::FrontEnd && !prm.scaleFrontEnd)
        return;

    int di = domainIndex(stats.domain);
    double u = stats.window.meanOccupancy();

    if (!seen[di]) {
        seen[di] = true;
        level[di] = table.indexNearest(stats.frequency);
        prevOcc[di] = u;
        return;
    }

    int occBucket = std::clamp(
        static_cast<int>(u * static_cast<double>(kOccBuckets)), 0,
        kOccBuckets - 1);
    double du = u - prevOcc[di];
    int trend = du < -prm.trendThreshold ? 0
        : du > prm.trendThreshold       ? 2
                                        : 1;
    prevOcc[di] = u;

    int top = table.numPoints() - 1;
    int next =
        std::clamp(level[di] + steps[occBucket][trend], 0, top);
    if (next != level[di]) {
        level[di] = next;
        request(stats.domain, table.point(next).frequency);
    }
}

} // namespace mcd
