#include "fault_plan.hh"

#include <fstream>
#include <limits>
#include <sstream>

#include "common/log.hh"
#include "common/spec.hh"

namespace mcd {
namespace fault {

InjectedFault::InjectedFault(const std::string &site, bool transient_)
    : std::runtime_error("injected fault at " + site +
                         (transient_ ? " (transient)" : "")),
      where(site), isTransient(transient_)
{}

namespace {

[[noreturn]] void
badSpec(const std::string &item, const char *why)
{
    fatal("MCD_FAULT_PLAN: bad item '" + item + "': " + why +
          " (grammar: leg:<bench>/<leg>=throw|flaky[:k]|stall|"
          "vfmisorder; cache:<bench>=truncate|corrupt; seed=N)");
}

} // namespace

FaultPlan
FaultPlan::parse(const std::string &text)
{
    FaultPlan plan;
    for (const std::string &item : spec::split(text, ';')) {
        auto [target, action] =
            spec::keyValue("MCD_FAULT_PLAN: bad item", item);
        const std::string what = "MCD_FAULT_PLAN: bad item '" + item + "'";
        if (target == "seed") {
            plan.rngSeed = spec::parseU64(what + ": seed", action);
            continue;
        }

        FaultSpec fs;
        if (target.rfind("leg:", 0) == 0) {
            fs.site = target.substr(4);
            if (fs.site.find('/') == std::string::npos)
                badSpec(item, "leg site must be <bench>/<leg>");
            std::size_t colon = action.find(':');
            std::string verb = action.substr(0, colon);
            if (verb == "throw") {
                fs.kind = FaultKind::Throw;
            } else if (verb == "flaky") {
                fs.kind = FaultKind::Flaky;
                if (colon != std::string::npos) {
                    fs.count = static_cast<int>(spec::parseInt(
                        what + ": flaky count", action.substr(colon + 1),
                        1, std::numeric_limits<int>::max()));
                }
            } else if (verb == "stall") {
                fs.kind = FaultKind::Stall;
            } else if (verb == "vfmisorder") {
                fs.kind = FaultKind::VfMisorder;
            } else {
                badSpec(item, "unknown leg action");
            }
            if (fs.kind != FaultKind::Flaky &&
                colon != std::string::npos) {
                badSpec(item, "only flaky takes a count");
            }
        } else if (target.rfind("cache:", 0) == 0) {
            fs.site = target.substr(6);
            if (fs.site.empty() ||
                fs.site.find('/') != std::string::npos) {
                badSpec(item, "cache site must be a benchmark name");
            }
            if (action == "truncate")
                fs.kind = FaultKind::TruncateCache;
            else if (action == "corrupt")
                fs.kind = FaultKind::CorruptCache;
            else
                badSpec(item, "unknown cache action");
        } else {
            badSpec(item, "target must start with leg: or cache:");
        }
        if (fs.site.empty())
            badSpec(item, "empty site");
        plan.armed.push_back(std::move(fs));
    }
    return plan;
}

std::string
FaultPlan::toSpec() const
{
    std::string out;
    auto append = [&](const std::string &item) {
        if (!out.empty())
            out += ";";
        out += item;
    };
    for (const FaultSpec &fs : armed) {
        switch (fs.kind) {
          case FaultKind::Throw:
            append("leg:" + fs.site + "=throw");
            break;
          case FaultKind::Flaky:
            append("leg:" + fs.site + "=flaky" +
                   (fs.count == 1 ? std::string()
                                  : ":" + std::to_string(fs.count)));
            break;
          case FaultKind::Stall:
            append("leg:" + fs.site + "=stall");
            break;
          case FaultKind::VfMisorder:
            append("leg:" + fs.site + "=vfmisorder");
            break;
          case FaultKind::TruncateCache:
            append("cache:" + fs.site + "=truncate");
            break;
          case FaultKind::CorruptCache:
            append("cache:" + fs.site + "=corrupt");
            break;
        }
    }
    if (rngSeed != 1)
        append("seed=" + std::to_string(rngSeed));
    return out;
}

const FaultSpec *
FaultPlan::findLeg(const std::string &site, FaultKind kind) const
{
    for (const FaultSpec &fs : armed) {
        if (fs.kind == kind && fs.site == site)
            return &fs;
    }
    return nullptr;
}

void
FaultPlan::onLegAttempt(const std::string &site, int attempt) const
{
    if (findLeg(site, FaultKind::Throw))
        throw InjectedFault(site, /*transient=*/false);
    if (const FaultSpec *fs = findLeg(site, FaultKind::Flaky)) {
        if (attempt <= fs->count)
            throw InjectedFault(site, /*transient=*/true);
    }
}

bool
FaultPlan::stallsLeg(const std::string &site) const
{
    return !site.empty() && findLeg(site, FaultKind::Stall) != nullptr;
}

bool
FaultPlan::misordersLeg(const std::string &site) const
{
    return !site.empty() &&
        findLeg(site, FaultKind::VfMisorder) != nullptr;
}

bool
FaultPlan::legFaultsFor(const std::string &bench) const
{
    std::string prefix = bench + "/";
    for (const FaultSpec &fs : armed) {
        bool legKind = fs.kind == FaultKind::Throw ||
            fs.kind == FaultKind::Flaky ||
            fs.kind == FaultKind::Stall ||
            fs.kind == FaultKind::VfMisorder;
        if (legKind && fs.site.rfind(prefix, 0) == 0)
            return true;
    }
    return false;
}

std::optional<FaultKind>
FaultPlan::cacheFault(const std::string &bench) const
{
    for (const FaultSpec &fs : armed) {
        bool cacheKind = fs.kind == FaultKind::TruncateCache ||
            fs.kind == FaultKind::CorruptCache;
        if (cacheKind && fs.site == bench)
            return fs.kind;
    }
    return std::nullopt;
}

bool
damageFile(const std::string &path, FaultKind kind)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    in.close();

    if (kind == FaultKind::TruncateCache) {
        bytes.resize(bytes.size() / 2);
    } else {
        // Flip a run of payload bytes in the middle of the file; the
        // version header (first line) is left intact so the read path
        // exercises the checksum, not the version check.
        std::size_t start = bytes.size() / 2;
        for (std::size_t i = start;
             i < bytes.size() && i < start + 8; ++i) {
            bytes[i] = static_cast<char>(bytes[i] ^ 0x2a);
        }
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out);
}

} // namespace fault
} // namespace mcd
