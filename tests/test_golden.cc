/**
 * @file
 * Cross-commit result pins. A fixed short-protocol grid runs through
 * SweepEngine exactly as a caller would, with no setup call: the 18
 * paper workloads under none, toggle1, P, PI and PID, plus percore-PID
 * on 2- and 4-core chips under each budget policy. Every point's
 * config digest (sweepConfigDigest, which folds in the cache salt) and
 * result digest (hash of serializeRunResult) must equal the committed
 * line in tests/golden/digests.txt.
 *
 * A refactor or speedup reproduces the file bit for bit. A deliberate
 * result change bumps the cache salt in sim/sweep.cc and replaces the
 * file with the one this test prints on a mismatch.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "sim/sweep.hh"
#include "workload/spec_profiles.hh"

using namespace thermctl;

namespace
{

/** Long enough to engage every controller, short enough for tier-1. */
RunProtocol
goldenProtocol()
{
    RunProtocol proto;
    proto.warmup_cycles = 10000;
    proto.measure_cycles = 20000;
    return proto;
}

DtmPolicySettings
policyOf(DtmPolicyKind kind)
{
    DtmPolicySettings s;
    s.kind = kind;
    return s;
}

/** The paper grid: every workload under the single-core policies. */
SweepSpec
paperGrid()
{
    SweepSpec spec;
    spec.protocol(goldenProtocol()).workloads(allSpecProfiles());
    for (auto kind : {DtmPolicyKind::None, DtmPolicyKind::Toggle1,
                      DtmPolicyKind::P, DtmPolicyKind::PI,
                      DtmPolicyKind::PID})
        spec.policy(policyOf(kind));
    return spec;
}

/**
 * Budget-capped percore-PID chips: {2, 4} cores x each budget split, at
 * a per-core budget where all six points give distinct results.
 */
SweepSpec
multicoreGrid()
{
    SweepSpec spec;
    spec.protocol(goldenProtocol())
        .workload(specProfile("186.crafty"))
        .policy(policyOf(DtmPolicyKind::PerCorePid));
    for (std::uint32_t cores : {2u, 4u}) {
        for (auto budget :
             {BudgetPolicy::Uniform, BudgetPolicy::DemandProportional,
              BudgetPolicy::ThermalHeadroom}) {
            spec.variant(
                std::to_string(cores) + "core-"
                    + budgetPolicyName(budget),
                [cores, budget](SimConfig &cfg) {
                    cfg.multicore.num_cores = cores;
                    cfg.multicore.chip_budget = 25.0 * cores;
                    cfg.multicore.budget_policy = budget;
                });
        }
    }
    return spec;
}

struct Pin
{
    std::string config;
    std::string result;
};

/** Run both grids; (key, pin) pairs in grid order. */
std::vector<std::pair<std::string, Pin>>
computePins()
{
    std::vector<std::pair<std::string, Pin>> pins;
    for (const SweepSpec &spec : {paperGrid(), multicoreGrid()}) {
        const SweepResults res = SweepEngine().run(spec);
        for (const auto &oc : res.outcomes()) {
            pins.push_back(
                {oc.point.key,
                 {hashHex(sweepConfigDigest(oc.point.config,
                                            spec.runProtocol())),
                  hashHex(hashString(serializeRunResult(oc.result)))}});
        }
    }
    return pins;
}

/** The committed file: key -> pin; '#' lines are comments. */
std::map<std::string, Pin>
readPins(const std::string &path)
{
    std::map<std::string, Pin> pins;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key;
        Pin pin;
        fields >> key >> pin.config >> pin.result;
        pins[key] = pin;
    }
    return pins;
}

std::string
renderPins(const std::vector<std::pair<std::string, Pin>> &pins)
{
    std::ostringstream out;
    out << "# Golden result digests (tests/test_golden.cc).\n"
           "# <point key> <sweepConfigDigest> "
           "<hashString(serializeRunResult)>\n";
    for (const auto &[key, pin] : pins)
        out << key << ' ' << pin.config << ' ' << pin.result << "\n";
    return out.str();
}

TEST(Golden, ResultsMatchCommittedDigests)
{
    const auto pins = computePins();
    std::map<std::string, Pin> golden = readPins(THERMCTL_GOLDEN_FILE);

    std::ostringstream drift;
    for (const auto &[key, pin] : pins) {
        const auto it = golden.find(key);
        if (it == golden.end()) {
            drift << "  " << key << ": not in the golden file\n";
            continue;
        }
        if (pin.result != it->second.result) {
            drift << "  " << key << ": result " << it->second.result
                  << " -> " << pin.result;
            if (pin.config == it->second.config) {
                drift << " with the config digest unchanged: the cache "
                         "salt (kSweepCacheSalt in src/sim/sweep.cc) was "
                         "not bumped";
            }
            drift << "\n";
        } else if (pin.config != it->second.config) {
            drift << "  " << key << ": config digest "
                  << it->second.config << " -> " << pin.config << "\n";
        }
        golden.erase(it);
    }
    for (const auto &entry : golden)
        drift << "  " << entry.first << ": no longer in the grid\n";

    EXPECT_TRUE(drift.str().empty())
        << "results drifted from " << THERMCTL_GOLDEN_FILE << ":\n"
        << drift.str()
        << "\nIf the change is deliberate, bump the cache salt and "
           "replace the file with:\n"
        << renderPins(pins);
}

} // namespace
