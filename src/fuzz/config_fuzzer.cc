#include "config_fuzzer.hh"

#include <string>
#include <vector>

#include "common/log.hh"
#include "common/random.hh"
#include "control/registry.hh"

namespace mcd {
namespace fuzz {

Scenario
ConfigFuzzer::tuple(std::uint64_t index) const
{
    Scenario s;
    s.workload = GenParams::fromSeed(
        streamSeedAt(root, "fuzz.workload", index));

    Rng rng(streamSeedAt(root, "fuzz.config", index));

    // Alternate models deterministically instead of sampling, so any
    // budget >= 2 is guaranteed to cover both (acceptance criterion:
    // "across both DVFS models").
    const char *model = (index % 2 == 0) ? "XScale" : "Transmeta";

    const double timeScales[] = {0.05, 0.1};
    const double dilationHighs[] = {0.03, 0.05, 0.08};
    double timeScale = timeScales[rng.uniformInt(2)];
    double dilationHigh = dilationHighs[rng.uniformInt(3)];
    std::uint64_t seed = 1 + rng.uniformInt(1'000'000);

    s.options = {
        {"model", model},
        {"dvfsTimeScale", std::to_string(timeScale)},
        {"dilationLow", "0.01"},
        {"dilationHigh", std::to_string(dilationHigh)},
        {"seed", std::to_string(seed)},
        // Small enough that a stalled leg trips in milliseconds of
        // host time, 25x above the longest legitimate no-commit
        // stretch (one Transmeta re-lock window, ~40K edges).
        {"watchdogEdges", "1000000"},
    };
    if (rng.uniform() < 0.2)
        s.options["sampling"] = "detailed=1000,ff=4000,warmup=250";

    // Leg set: always the dyn5 replay oracle (reliable frequency
    // rises, the vfmisorder trigger), plus optional companions.
    std::vector<LegSpec> legs;
    legs.push_back(LegSpec::scheduleReplay("dyn5", dilationHigh));
    if (rng.uniform() < 0.3)
        legs.push_back(LegSpec::scheduleReplay("dyn1", 0.01));
    if (rng.uniform() < 0.3)
        legs.push_back(LegSpec::globalSearch("global", "dyn5"));
    if (rng.uniform() < 0.6) {
        const std::vector<std::string> &names =
            ControllerRegistry::instance().names();
        if (!names.empty()) {
            const std::string &n = names[rng.uniformInt(names.size())];
            legs.push_back(LegSpec::controllerLeg(n, n));
        }
    }
    // Leg name = controller name may duplicate; dedupe by name.
    std::vector<LegSpec> unique;
    for (const LegSpec &l : legs) {
        bool dup = false;
        for (const LegSpec &u : unique)
            dup = dup || u.name == l.name;
        if (!dup)
            unique.push_back(l);
    }
    s.legsSpec = legsToSpec(unique);

    // Declared fault plan (~1 in 3 tuples): recovery-path exercise
    // whose expected outcome classifies as ok.
    if (rng.uniform() < 0.35) {
        const LegSpec &target = unique[rng.uniformInt(unique.size())];
        switch (rng.uniformInt(4)) {
          case 0:
            s.faultSpec = "leg:@/" + target.name + "=throw";
            break;
          case 1:
            // flaky:1 with legAttempts 2 recovers via the bounded retry.
            s.faultSpec = "leg:@/" + target.name + "=flaky:1";
            break;
          case 2:
            s.faultSpec = "leg:@/" + target.name + "=stall";
            break;
          case 3:
            s.faultSpec = "leg:@/dyn5=vfmisorder";
            break;
        }
    }

    // Enforce the valid-by-construction contract.
    ExperimentConfig cfg = s.toConfig();
    std::vector<std::string> errs = cfg.validateAll();
    if (!errs.empty())
        panic("ConfigFuzzer: tuple " + std::to_string(index) +
              " sampled an invalid configuration: " + errs.front());
    return s;
}

} // namespace fuzz
} // namespace mcd
