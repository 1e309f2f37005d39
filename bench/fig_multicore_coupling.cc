/**
 * @file
 * Figure (extension): multicore scaling and inter-core thermal coupling.
 *
 * Sweeps the chip from 1 to 16 cores, with and without lateral coupling
 * between adjacent cores, under the per-core PID policy. Two questions:
 *
 *  1. How does aggregate throughput and the hottest block scale with
 *     the core count when every core runs the same hot workload and
 *     all of them share one heatsink?
 *  2. How much does lateral coupling matter — does a core's thermal
 *     headroom shrink when its neighbours run hot too?
 *
 * Expected shape: throughput scales near-linearly (cores are
 * decorrelated instances of the same profile), the hottest block creeps
 * up with the core count through the shared sink, and enabling coupling
 * nudges interior cores hotter than the isolated variant at the same
 * count.
 *
 * The sweep itself runs through the cached SweepEngine like every other
 * figure. A separate uncached, timed stepping loop prints raw engine
 * throughput (nominal cycles/second at each core count); perfbench/'s
 * chip16 workload is the tracked measurement of the same path.
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_util.hh"
#include "common/table.hh"
#include "multicore/multicore_sim.hh"
#include "workload/spec_profiles.hh"

using namespace thermctl;

namespace
{

constexpr std::uint32_t kCoreCounts[] = {1, 2, 4, 8, 16};

/** @return nominal cycles per second of one timed, uncached run. */
double
timeStepping(std::uint32_t cores, std::uint64_t cycles)
{
    SimConfig cfg;
    cfg.workload = specProfile("186.crafty");
    cfg.policy.kind = DtmPolicyKind::PerCorePid;
    cfg.multicore.num_cores = cores;
    multicore::MulticoreSimulator sim(cfg);
    sim.warmUp(cycles / 10);

    const auto start = std::chrono::steady_clock::now();
    sim.run(cycles);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - start)
            .count();
    return secs > 0.0 ? static_cast<double>(cycles) / secs : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Session session(
        argc, argv,
        "Figure: multicore scaling and inter-core coupling",
        "extension (multicore thermal RC network; DESIGN.md section 15)");

    auto profile = specProfile("186.crafty");
    SweepSpec spec = session.spec();
    spec.workload(profile);
    DtmPolicySettings pid;
    pid.kind = DtmPolicyKind::PerCorePid;
    spec.policy(pid);
    for (std::uint32_t cores : kCoreCounts) {
        for (bool coupled : {false, true}) {
            // A 1-core chip has no seam; skip the redundant variant.
            if (cores == 1 && coupled)
                continue;
            spec.variant(
                "cores" + std::to_string(cores)
                    + (coupled ? "-coupled" : "-isolated"),
                [cores, coupled](SimConfig &cfg) {
                    cfg.multicore.num_cores = cores;
                    cfg.multicore.coupling_resistance =
                        coupled ? 4.0 : 0.0;
                });
        }
    }
    const SweepResults res = session.run(spec);

    TextTable t;
    t.setHeader({"cores", "coupling", "chip IPC", "avg pwr (W)",
                 "max T (C)", "mean duty"});
    for (std::uint32_t cores : kCoreCounts) {
        for (bool coupled : {false, true}) {
            if (cores == 1 && coupled)
                continue;
            const std::string variant =
                "cores" + std::to_string(cores)
                + (coupled ? "-coupled" : "-isolated");
            const auto &r = res.at(profile.name,
                                   dtmPolicyKindName(pid.kind), variant);
            t.addRow({std::to_string(cores),
                      coupled ? "on" : "off",
                      formatDouble(r.ipc, 2),
                      formatDouble(r.avg_power, 1),
                      formatDouble(r.max_temperature, 2),
                      formatDouble(r.mean_duty, 2)});
        }
        t.addRule();
    }
    t.print(std::cout);

    // Uncached engine-throughput measurement (never cache this: the
    // point is wall-clock speed, not the simulated result).
    const char *fast = std::getenv("THERMCTL_FAST");
    const std::uint64_t cycles =
        (fast && fast[0] == '1') ? 20000 : 200000;
    std::cout << "\nengine stepping rate (uncached, " << cycles
              << " nominal cycles each):\n";
    for (std::uint32_t cores : kCoreCounts) {
        std::cout << "  " << cores << " cores: "
                  << formatDouble(timeStepping(cores, cycles) / 1e6, 2)
                  << " Mcycles/s\n";
    }
    return 0;
}
