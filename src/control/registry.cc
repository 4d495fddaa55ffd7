#include "registry.hh"

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <string_view>

#include "common/log.hh"
#include "common/spec.hh"
#include "control/governor.hh"
#include "control/pid.hh"
#include "control/table_policy.hh"

namespace mcd {

std::vector<ControllerParam>
parseControllerParams(const std::string &text, const std::string &what)
{
    std::vector<ControllerParam> out;
    for (const std::string &item : spec::split(text, ',')) {
        auto [key, val] = spec::keyValue(what, item);
        const std::string name = what + ": param '" + key + "'";
        // A "*-points" key counts operating-point steps, which the
        // factories store as int; interval-us becomes an unsigned Tick
        // of picoseconds; scale-fe is a boolean.
        double v = key.ends_with("-points")
            ? static_cast<double>(spec::parseInt(
                  name, val, std::numeric_limits<int>::min(),
                  std::numeric_limits<int>::max()))
            : spec::parseDouble(name, val);
        if (key == "interval-us" && !(v > 0.0 && v * 1e6 < 0x1p64))
            fatal(name + ": must be > 0 and fit a Tick (got '" + val +
                  "')");
        if (key == "scale-fe" && v != 0.0 && v != 1.0)
            fatal(name + ": must be 0 or 1 (got '" + val + "')");
        out.emplace_back(std::move(key), v);
    }
    return out;
}

namespace {

/** One law param: its spec key and the params field it sets. */
template <typename P>
struct Key
{
    Key(std::string_view n, double P::*f) : name(n), real(f) {}
    Key(std::string_view n, int P::*f) : name(n), points(f) {}

    std::string_view name;
    double P::*real = nullptr;
    int P::*points = nullptr;   //!< a "*-points" key, parsed whole
};

/**
 * Apply @p spec over @p p: interval-us and scale-fe, which every
 * point controller takes, then the law's own @p keys. Fatal on an
 * unknown key, listing the valid set in table order.
 */
template <typename P>
P
bind(P p, const std::string &controller, const std::string &spec,
     std::initializer_list<Key<P>> keys)
{
    for (const auto &[key, v] :
         parseControllerParams(spec, "controller '" + controller + "'")) {
        if (key == "interval-us") {
            p.interval = fromMicroseconds(v);
            continue;
        }
        if (key == "scale-fe") {
            p.scaleFrontEnd = v != 0.0;
            continue;
        }
        auto k = std::ranges::find(keys, key, &Key<P>::name);
        if (k == keys.end()) {
            std::string valid = "interval-us, scale-fe";
            for (const Key<P> &known : keys)
                valid += ", " + std::string(known.name);
            fatal("controller '" + controller + "': unknown param '" +
                  key + "' (valid: " + valid + ")");
        }
        if (k->real)
            p.*k->real = v;
        else
            p.*k->points = static_cast<int>(v);
    }
    return p;
}

std::unique_ptr<DvfsController>
makeOnlineQueue(const ControllerContext &ctx, const std::string &spec)
{
    using P = OnlineQueueParams;
    return std::make_unique<OnlineQueueController>(
        bind<P>(ctx.online, "online-queue", spec,
                {{"attack-threshold", &P::attackThreshold},
                 {"attack-points", &P::attackPoints},
                 {"decay-points", &P::decayPoints},
                 {"idle-decay-points", &P::idleDecayPoints},
                 {"high-water", &P::highWater},
                 {"hold-water", &P::holdWater},
                 {"idle-water", &P::idleWater}}),
        ctx.table);
}

std::unique_ptr<DvfsController>
makePid(const ControllerContext &ctx, const std::string &spec)
{
    using P = PidParams;
    return std::make_unique<PidController>(
        bind<P>({}, "pid", spec,
                {{"setpoint", &P::setpoint},
                 {"kp", &P::kp},
                 {"ki", &P::ki},
                 {"kd", &P::kd}}),
        ctx.table);
}

template <GovernorPolicy Policy>
std::unique_ptr<DvfsController>
makeGovernor(const ControllerContext &ctx, const std::string &spec)
{
    using P = GovernorParams;
    return std::make_unique<GovernorController>(
        Policy,
        bind<P>({}, governorPolicyName(Policy), spec,
                {{"up-threshold", &P::upThreshold},
                 {"down-threshold", &P::downThreshold},
                 {"step-points", &P::stepPoints}}),
        ctx.table);
}

std::unique_ptr<DvfsController>
makeTable(const ControllerContext &ctx, const std::string &spec)
{
    using P = TablePolicyParams;
    return std::make_unique<TablePolicyController>(
        bind<P>({}, "table", spec,
                {{"trend-threshold", &P::trendThreshold}}),
        ctx.table);
}

struct BuiltIn
{
    std::string_view name;
    std::unique_ptr<DvfsController> (*make)(const ControllerContext &ctx,
                                            const std::string &params);
};

/** The registry: names are [A-Za-z0-9_-]+ and unique. */
constexpr BuiltIn builtIns[] = {
    // Queue-occupancy attack/decay law (the matrix's online leg).
    {"online-queue", makeOnlineQueue},
    // PID feedback on queue occupancy vs a setpoint.
    {"pid", makePid},
    // Pin every domain at full speed.
    {"governor-performance", makeGovernor<GovernorPolicy::Performance>},
    // Pin every domain at minimum speed.
    {"governor-powersave", makeGovernor<GovernorPolicy::Powersave>},
    // Jump to full speed above the up-threshold, else track load
    // proportionally.
    {"governor-ondemand", makeGovernor<GovernorPolicy::Ondemand>},
    // Step gradually with a rollback point on dilation overshoot.
    {"governor-conservative", makeGovernor<GovernorPolicy::Conservative>},
    // Offline-trained (occupancy x trend) -> step lookup.
    {"table", makeTable},
};

} // namespace

const ControllerRegistry &
ControllerRegistry::instance()
{
    static const ControllerRegistry reg;
    return reg;
}

std::vector<std::string>
ControllerRegistry::names() const
{
    std::vector<std::string> out;
    for (const BuiltIn &b : builtIns)
        out.emplace_back(b.name);
    return out;
}

std::unique_ptr<DvfsController>
ControllerRegistry::make(const std::string &name,
                         const ControllerContext &ctx,
                         const std::string &params) const
{
    for (const BuiltIn &b : builtIns) {
        if (b.name == name)
            return b.make(ctx, params);
    }
    std::string known;
    for (const BuiltIn &b : builtIns) {
        if (!known.empty())
            known += ", ";
        known += b.name;
    }
    fatal("unknown controller '" + name + "' (registered: " + known +
          ")");
}

} // namespace mcd
