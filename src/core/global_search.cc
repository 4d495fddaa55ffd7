#include "global_search.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/log.hh"

namespace mcd {

GlobalPick
searchGlobalPoint(const std::vector<double> &predicted, double target,
                  double band,
                  const std::function<double(int)> &degradationAt)
{
    const int n = static_cast<int>(predicted.size());
    if (n == 0)
        panic("searchGlobalPoint: empty operating-point table");
    constexpr double inf = std::numeric_limits<double>::infinity();

    GlobalPick pick;
    std::vector<std::optional<double>> measured(n);
    auto measure = [&](int i) {
        if (!measured[i]) {
            measured[i] = degradationAt(i);
            ++pick.measured;
        }
        return *measured[i];
    };
    // The degradations point i can have: exact once measured, else
    // its prediction's band.
    auto range = [&](int i, double eps) -> std::pair<double, double> {
        if (measured[i])
            return {*measured[i], *measured[i]};
        const double half = eps * (1.0 + predicted[i]);
        return {predicted[i] - half, predicted[i] + half};
    };

    auto walk = [&](double eps) {
        std::vector<int> path;
        int lo = 0;
        int hi = n - 1;
        while (lo <= hi) {
            const int mid = (lo + hi) / 2;
            path.push_back(mid);
            auto [low, high] = range(mid, eps);
            bool tooSlow = low > target;
            if (!tooSlow && high > target)
                tooSlow = measure(mid) > target;
            if (tooSlow)
                lo = mid + 1;   // raise frequency
            else
                hi = mid - 1;   // within target; try slower
        }

        // Distance bounds to the target. Whichever path point has the
        // smallest upper bound caps the winner's distance, so a point
        // whose lower bound exceeds that cap cannot win; measure the
        // others, likeliest first, until every contender is exact.
        auto dist = [&](int i) -> std::pair<double, double> {
            auto [low, high] = range(i, eps);
            const double near =
                low > target ? low - target
                             : (high < target ? target - high : 0.0);
            return {near, std::max(std::fabs(low - target),
                                   std::fabs(high - target))};
        };
        for (;;) {
            double cap = inf;
            for (int i : path)
                cap = std::min(cap, dist(i).second);
            int next = -1;
            double nextNear = inf;
            for (int i : path) {
                const double near = dist(i).first;
                if (!measured[i] && near <= cap && near < nextNear) {
                    next = i;
                    nextNear = near;
                }
            }
            if (next < 0)
                break;
            measure(next);
        }

        // Every point left unmeasured is strictly farther than some
        // measured one, so the first closest measured point is the
        // first closest on the path.
        int best = -1;
        double bestDist = inf;
        for (int i : path) {
            if (!measured[i])
                continue;
            const double d = std::fabs(*measured[i] - target);
            if (d < bestDist) {
                bestDist = d;
                best = i;
            }
        }
        return best;
    };

    pick.index = walk(band);
    for (int i = 0; i < n; ++i) {
        if (measured[i] &&
            std::fabs(*measured[i] - predicted[i]) >
                band * (1.0 + predicted[i])) {
            pick.fellBack = true;
            pick.index = walk(inf);
            break;
        }
    }
    return pick;
}

} // namespace mcd
