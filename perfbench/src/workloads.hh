/**
 * @file
 * The benchmark's workloads. Each takes its seed as an argument and
 * hands the program only the inputs it generates from it; each checks
 * its outputs and fills a Report with end-to-end metrics (untraced) or
 * per-layer metrics (traced). README.md in this directory says why each
 * workload exists and what each metric means.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "measure.hh"
#include "serve/protocol.hh"
#include "sim/sweep.hh"

namespace perfbench
{

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string pins_path;   ///< pinned grid digests
    std::string trace_path;  ///< where a traced run writes its spans
    std::string daemon_path; ///< the built thermctl_serve
    std::string tmp_dir;     ///< fresh per-run scratch (socket, caches)
};

/** paper_grid or chip16: the sweep engine over a seeded grid order. */
Report runBatch(const RunOptions &opts);

/** serve_split: hot and cold phases against a spawned daemon. */
Report runServeSplit(const RunOptions &opts);

/**
 * serve_split's cold requests: seeded profile and policy, and request i
 * measures a base cycle count + i, so every request is unique and must
 * simulate. Same seed, same sequence.
 */
std::vector<thermctl::serve::PointSpec> coldSpecs(std::uint64_t seed,
                                                  std::size_t count);

/** The paper's grid: 18 SPEC profiles x the 7 paper policies. */
thermctl::SweepSpec paperGridSpec(std::uint64_t seed);

/**
 * Reproduce a seeded paper_grid point with both the simulator and the
 * timing mirror and byte-compare the two RunResults. Every traced run
 * calls this before it reports per-layer numbers.
 * @return false (and a mismatch in `report`) when they differ.
 */
bool mirrorSelfCheck(std::uint64_t seed, Report &report);

/**
 * @return the digest pinned for `workload` in the pins file, or 0 when
 * the file has no line for it.
 */
std::uint64_t pinnedDigest(const std::string &pins_path,
                           const std::string &workload);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
