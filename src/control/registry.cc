#include "registry.hh"

#include <algorithm>

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
        double v = spec::parseDouble(what + ": param '" + key + "'", val);
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

ControllerRegistry::Factory
makeGovernor(GovernorPolicy policy)
{
    return [policy](const ControllerContext &ctx,
                    const std::string &spec) {
        const std::string who = governorPolicyName(policy);
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
        return std::unique_ptr<DvfsController>(
            std::make_unique<GovernorController>(policy, p, ctx.table));
    };
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

} // namespace

ControllerRegistry &
ControllerRegistry::instance()
{
    static ControllerRegistry reg;
    static const bool initialized = [] {
        ControllerRegistry &r = reg;
        r.add("online-queue",
              "queue-occupancy attack/decay law (PR2's online leg)",
              makeOnlineQueue);
        r.add("pid", "PID feedback on queue occupancy vs a setpoint",
              makePid);
        r.add("governor-performance", "pin every domain at full speed",
              makeGovernor(GovernorPolicy::Performance));
        r.add("governor-powersave", "pin every domain at minimum speed",
              makeGovernor(GovernorPolicy::Powersave));
        r.add("governor-ondemand",
              "jump to full speed above the up-threshold, else track "
              "load proportionally",
              makeGovernor(GovernorPolicy::Ondemand));
        r.add("governor-conservative",
              "step gradually with a rollback point on dilation "
              "overshoot",
              makeGovernor(GovernorPolicy::Conservative));
        r.add("table",
              "offline-trained (occupancy x trend) -> step lookup",
              makeTable);
        return true;
    }();
    (void)initialized;
    return reg;
}

void
ControllerRegistry::add(const std::string &name,
                        const std::string &description, Factory factory)
{
    std::lock_guard<std::mutex> lk(mutex);
    for (const Entry &e : entries) {
        if (e.name == name)
            fatal("ControllerRegistry: duplicate registration of '" +
                  name + "'");
    }
    if (name.empty() ||
        name.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                               "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                               "0123456789_-") != std::string::npos) {
        fatal("ControllerRegistry: invalid controller name '" + name +
              "' (use [A-Za-z0-9_-]+)");
    }
    entries.push_back({name, description, std::move(factory)});
}

const ControllerRegistry::Entry *
ControllerRegistry::find(std::string_view name) const
{
    for (const Entry &e : entries) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

bool
ControllerRegistry::contains(std::string_view name) const
{
    std::lock_guard<std::mutex> lk(mutex);
    return find(name) != nullptr;
}

std::vector<std::string>
ControllerRegistry::names() const
{
    std::lock_guard<std::mutex> lk(mutex);
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (const Entry &e : entries)
        out.push_back(e.name);
    return out;
}

std::string
ControllerRegistry::describe(std::string_view name) const
{
    std::lock_guard<std::mutex> lk(mutex);
    const Entry *e = find(name);
    return e ? e->description : std::string();
}

std::string
ControllerRegistry::namesJoined() const
{
    std::lock_guard<std::mutex> lk(mutex);
    std::string out;
    for (const Entry &e : entries) {
        if (!out.empty())
            out += ", ";
        out += e.name;
    }
    return out;
}

std::unique_ptr<DvfsController>
ControllerRegistry::make(const std::string &name,
                         const ControllerContext &ctx,
                         const std::string &params) const
{
    Factory factory;
    {
        std::lock_guard<std::mutex> lk(mutex);
        const Entry *e = find(name);
        if (!e) {
            std::string known;
            for (const Entry &en : entries) {
                if (!known.empty())
                    known += ", ";
                known += en.name;
            }
            fatal("unknown controller '" + name + "' (registered: " +
                  known + ")");
        }
        factory = e->factory;
    }
    return factory(ctx, params);
}

} // namespace mcd
