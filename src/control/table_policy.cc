#include "table_policy.hh"

#include <algorithm>

#include "common/log.hh"

namespace mcd {

namespace {

/** Occupancy buckets: floor(u * kOccBuckets), clamped. */
constexpr int kOccBuckets = 8;

/**
 * The offline-trained point-delta table (see the header comment).
 * Rows: occupancy bucket (0 = near empty .. 7 = near full). Columns:
 * trend (falling, flat, rising). +/-32 saturates against the 32-point
 * table.
 */
constexpr int kTrained[kOccBuckets][3] = {
    {-4, -3, +2},       // [0, 12.5%): idle — decay hard
    {-2, -2, +3},       // [12.5, 25%): light — probe down
    {-1, -1, +3},       // [25, 37.5%)
    {0, 0, +4},         // [37.5, 50%): settled band — hold
    {0, 0, +4},         // [50, 62.5%)
    {+2, +1, +5},       // [62.5, 75%): filling — speed up
    {+4, +3, +6},       // [75, 87.5%): back pressure building
    {+32, +32, +32},    // [87.5%, 1]: saturated — full speed
};

} // namespace

TablePolicyController::TablePolicyController(
    const TablePolicyParams &params, const DvfsTable &table)
    : PointController(table, params.interval, params.scaleFrontEnd,
                      "TablePolicyParams"),
      prm(params)
{
    if (!(prm.trendThreshold > 0.0 && prm.trendThreshold < 1.0))
        fatal("TablePolicyParams: trendThreshold must lie in (0, 1)");
}

int
TablePolicyController::next(int, int at, double u, double prev)
{
    int occBucket = std::clamp(
        static_cast<int>(u * static_cast<double>(kOccBuckets)), 0,
        kOccBuckets - 1);
    double du = u - prev;
    int trend = du < -prm.trendThreshold ? 0
        : du > prm.trendThreshold       ? 2
                                        : 1;
    return at + kTrained[occBucket][trend];
}

} // namespace mcd
