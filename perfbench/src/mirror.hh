/**
 * @file
 * The traced engine: the layers of one simulated cycle timed in their
 * real interleaving, built only from public calls.
 *
 * runTimedSingleCore() is a mirror of Simulator::tick / warmUp and of
 * the result assembly in ExperimentRunner::runOne. It drives Core::tick
 * through a timing InstructionStream proxy, then PowerModel::cyclePower,
 * SimplifiedRCModel::step/stepScaled and DtmManager::tick, exactly as
 * the simulator does, so the layers share the host caches as they do in
 * an untraced run. Its RunResult must be byte-identical to the
 * simulator's; the traced run checks that before it reports anything.
 *
 * runTimedMulticore() times multicore::runMulticoreOne as a whole, then
 * times ChipModel::step, CoreController::update and
 * BudgetCoordinator::split on 16-core inputs of the size the point
 * used (per-core power from the point's own result), because those
 * parts are private inside the multicore engine.
 *
 * Every timed interval also holds the cost of a steady-clock read. The
 * report functions measure that cost (trace.clock_read_ns) and take it
 * off each interval, so the short layers are not mostly timer.
 */

#ifndef PERFBENCH_MIRROR_HH
#define PERFBENCH_MIRROR_HH

#include <cstdint>

#include "sim/experiment.hh"

namespace perfbench
{

/** Busy time and call counts of the engine layers, summed over points. */
struct LayerTimes
{
    std::uint64_t cycles = 0;       ///< simulated core-cycles
    std::uint64_t next_calls = 0;   ///< InstructionStream::next + synth
    std::int64_t next_ns = 0;
    std::int64_t core_ns = 0;       ///< Core::tick, proxy time included
    std::int64_t power_ns = 0;      ///< cyclePower (+ leakage, scaling)
    std::int64_t thermal_ns = 0;    ///< SimplifiedRCModel::step
    std::int64_t dtm_ns = 0;        ///< DtmManager::tick
    std::int64_t tick_ns = 0;       ///< the whole mirrored tick

    // Multicore engine (runTimedMulticore).
    std::uint64_t mc_core_cycles = 0;
    std::int64_t mc_run_ns = 0;     ///< multicore::runMulticoreOne
    std::uint64_t chip_steps = 0;
    std::int64_t chip_step_ns = 0;
    std::uint64_t controller_updates = 0;
    std::int64_t controller_ns = 0;
    std::uint64_t budget_splits = 0;
    std::int64_t budget_ns = 0;

    // Simulated counts (identical across speed-only changes).
    double raw_ipc_sum = 0.0;       ///< per-point RunResult::raw_ipc
    std::uint64_t fetched = 0;
    std::uint64_t wrong_path_ops = 0;
    std::uint64_t l1d_accesses = 0, l1d_misses = 0;
    std::uint64_t l2_accesses = 0, l2_misses = 0;
    double duty_sum = 0.0;          ///< per-point mean duty, summed
    std::uint64_t points = 0;

    void add(const LayerTimes &o);
};

/** Single-core point through the timing mirror of Simulator. */
thermctl::RunResult runTimedSingleCore(const thermctl::SimConfig &cfg,
                                       const thermctl::RunProtocol &proto,
                                       LayerTimes &times);

/** Multicore point, with the chip/controller/budget layers timed. */
thermctl::RunResult runTimedMulticore(const thermctl::SimConfig &cfg,
                                      const thermctl::RunProtocol &proto,
                                      LayerTimes &times);

struct Report;

/** Per-layer metrics of single-core points (engine mirror). */
void reportSingleCoreLayers(const LayerTimes &t, Report &report);

/** Per-layer metrics of multicore points. */
void reportMulticoreLayers(const LayerTimes &t, Report &report);

} // namespace perfbench

#endif // PERFBENCH_MIRROR_HH
