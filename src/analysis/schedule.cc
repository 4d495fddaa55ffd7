#include "schedule.hh"

#include <algorithm>
#include <cstdio>

namespace mcd {

void
ReconfigSchedule::finalize()
{
    std::stable_sort(entries.begin(), entries.end(),
                     [](const ReconfigEntry &a, const ReconfigEntry &b) {
                         return a.when < b.when;
                     });
}

std::size_t
ReconfigSchedule::countFor(Domain d) const
{
    std::size_t n = 0;
    for (const auto &e : entries) {
        if (e.domain == d)
            ++n;
    }
    return n;
}

std::string
ReconfigSchedule::toText() const
{
    std::string out;
    char buf[96];
    for (const auto &e : entries) {
        std::snprintf(buf, sizeof(buf), "%llu %s %.0f\n",
                      static_cast<unsigned long long>(e.when),
                      domainShortName(e.domain), e.frequency);
        out += buf;
    }
    return out;
}

} // namespace mcd
