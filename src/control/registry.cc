#include "registry.hh"

#include <algorithm>
#include <limits>

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
        // of picoseconds.
        double v = key.ends_with("-points")
            ? static_cast<double>(spec::parseInt(
                  name, val, std::numeric_limits<int>::min(),
                  std::numeric_limits<int>::max()))
            : spec::parseDouble(name, val);
        if (key == "interval-us" && !(v > 0.0 && v * 1e6 < 0x1p64))
            fatal(name + ": must be > 0 and fit a Tick (got '" + val +
                  "')");
        out.emplace_back(std::move(key), v);
    }
    return out;
}

namespace {

[[noreturn]] void
unknownKey(const std::string &controller, const std::string &key,
           const char *valid)
{
    fatal("controller '" + controller + "': unknown param '" + key +
          "' (valid: " + valid + ")");
}

/** Shared "interval-us" / "scale-fe" handling; returns handled. */
template <typename Params>
bool
commonParam(Params &p, const ControllerParam &kv)
{
    if (kv.first == "interval-us") {
        p.interval = fromMicroseconds(kv.second);
        return true;
    }
    if (kv.first == "scale-fe") {
        p.scaleFrontEnd = kv.second != 0.0;
        return true;
    }
    return false;
}

std::unique_ptr<DvfsController>
makeOnlineQueue(const ControllerContext &ctx, const std::string &spec)
{
    OnlineQueueParams p = ctx.online;
    for (const ControllerParam &kv :
         parseControllerParams(spec, "controller 'online-queue'")) {
        if (commonParam(p, kv))
            continue;
        else if (kv.first == "attack-threshold")
            p.attackThreshold = kv.second;
        else if (kv.first == "attack-points")
            p.attackPoints = static_cast<int>(kv.second);
        else if (kv.first == "decay-points")
            p.decayPoints = static_cast<int>(kv.second);
        else if (kv.first == "idle-decay-points")
            p.idleDecayPoints = static_cast<int>(kv.second);
        else if (kv.first == "high-water")
            p.highWater = kv.second;
        else if (kv.first == "hold-water")
            p.holdWater = kv.second;
        else if (kv.first == "idle-water")
            p.idleWater = kv.second;
        else
            unknownKey("online-queue", kv.first,
                       "interval-us, scale-fe, attack-threshold, "
                       "attack-points, decay-points, "
                       "idle-decay-points, high-water, hold-water, "
                       "idle-water");
    }
    return std::make_unique<OnlineQueueController>(p, ctx.table,
                                                   ctx.seed);
}

std::unique_ptr<DvfsController>
makePid(const ControllerContext &ctx, const std::string &spec)
{
    PidParams p;
    for (const ControllerParam &kv :
         parseControllerParams(spec, "controller 'pid'")) {
        if (commonParam(p, kv))
            continue;
        else if (kv.first == "setpoint")
            p.setpoint = kv.second;
        else if (kv.first == "kp")
            p.kp = kv.second;
        else if (kv.first == "ki")
            p.ki = kv.second;
        else if (kv.first == "kd")
            p.kd = kv.second;
        else
            unknownKey("pid", kv.first,
                       "interval-us, scale-fe, setpoint, kp, ki, kd");
    }
    return std::make_unique<PidController>(p, ctx.table);
}

template <GovernorPolicy Policy>
std::unique_ptr<DvfsController>
makeGovernor(const ControllerContext &ctx, const std::string &spec)
{
    const std::string who = governorPolicyName(Policy);
    GovernorParams p;
    for (const ControllerParam &kv :
         parseControllerParams(spec, "controller '" + who + "'")) {
        if (commonParam(p, kv))
            continue;
        else if (kv.first == "up-threshold")
            p.upThreshold = kv.second;
        else if (kv.first == "down-threshold")
            p.downThreshold = kv.second;
        else if (kv.first == "step-points")
            p.stepPoints = static_cast<int>(kv.second);
        else
            unknownKey(who, kv.first,
                       "interval-us, scale-fe, up-threshold, "
                       "down-threshold, step-points");
    }
    return std::make_unique<GovernorController>(Policy, p, ctx.table);
}

std::unique_ptr<DvfsController>
makeTable(const ControllerContext &ctx, const std::string &spec)
{
    TablePolicyParams p;
    for (const ControllerParam &kv :
         parseControllerParams(spec, "controller 'table'")) {
        if (commonParam(p, kv))
            continue;
        else if (kv.first == "trend-threshold")
            p.trendThreshold = kv.second;
        else
            unknownKey("table", kv.first,
                       "interval-us, scale-fe, trend-threshold");
    }
    return std::make_unique<TablePolicyController>(p, ctx.table);
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
