/**
 * @file
 * The composed simulator: synthetic workload -> out-of-order core ->
 * per-structure power -> per-block thermal RC -> DTM -> fetch gating,
 * advanced cycle by cycle exactly as in the paper's methodology
 * ("temperature is computed on a cycle-by-cycle basis").
 */

#ifndef THERMCTL_SIM_SIMULATOR_HH
#define THERMCTL_SIM_SIMULATOR_HH

#include <functional>
#include <limits>
#include <memory>

#include "cpu/core.hh"
#include "dtm/manager.hh"
#include "power/model.hh"
#include "sim/config.hh"
#include "sim/policy_factory.hh"
#include "thermal/rc_model.hh"
#include "workload/synthetic.hh"
#include "workload/trace.hh"

namespace thermctl
{

/** Per-structure measurement aggregates for one run. */
struct StructureRunStats
{
    double temp_sum = 0.0;
    Celsius temp_max = std::numeric_limits<double>::lowest();
    std::uint64_t emergency_cycles = 0;
    std::uint64_t stress_cycles = 0;
};

/** Whole-run measurement aggregates. */
struct SimulatorStats
{
    std::uint64_t cycles = 0;
    PowerVector power_sum;
    std::array<StructureRunStats, kNumStructures> structures{};

    /** @return average chip-wide power over the window, Watts. */
    Watts
    avgPower() const
    {
        return cycles ? power_sum.total() / static_cast<double>(cycles)
                      : 0.0;
    }

    /** @return average power of one structure, Watts. */
    Watts
    avgStructurePower(StructureId id) const
    {
        return cycles ? power_sum[id] / static_cast<double>(cycles)
                      : 0.0;
    }

    /** @return time-average temperature of one structure. */
    Celsius
    avgTemperature(StructureId id) const
    {
        const auto &s = structures[static_cast<std::size_t>(id)];
        return cycles ? s.temp_sum / static_cast<double>(cycles) : 0.0;
    }
};

/**
 * Build the instruction source of core `core_index`: the recorded trace
 * when `cfg.trace_path` is set, else the workload generator with its
 * seed offset by the core index (core 0 runs the profile's own seed).
 */
std::unique_ptr<InstructionStream>
makeInstructionStream(const SimConfig &cfg, std::size_t core_index = 0);

/** One fully wired simulation instance. */
class Simulator
{
  public:
    explicit Simulator(const SimConfig &cfg);

    /** Advance one cycle. */
    void tick();

    /** Advance n cycles. */
    void run(std::uint64_t n);

    /**
     * The standard warm-up protocol: run half the span cold, jump the
     * thermal state to the steady state implied by the measured average
     * power, run the second half to settle, then clear every statistic
     * so a measurement window can begin.
     */
    void warmUp(std::uint64_t cycles);

    /** Clear all measurement statistics (not the machine state). */
    void resetMeasurement();

    /** Per-cycle probe invoked every `interval` cycles (0 disables). */
    using Probe = std::function<void(const Simulator &, Cycle)>;
    void setProbe(Probe probe, Cycle interval);

    /**
     * Replace the DTM policy with a custom instance (rebuilds the DTM
     * manager under the current configuration). Used by ablations that
     * need controller variants the factory does not expose.
     */
    void setDtmPolicy(std::unique_ptr<DtmPolicy> policy);

    Cycle now() const { return now_; }
    const Core &core() const { return core_; }
    const SimplifiedRCModel &thermal() const { return thermal_; }
    const DtmManager &dtm() const { return *dtm_; }
    const PowerModel &power() const { return power_; }
    const SimulatorStats &stats() const { return stats_; }
    const SimConfig &config() const { return cfg_; }
    const PowerVector &lastPower() const { return last_power_; }
    const FopdtPlant &dtmPlant() const { return plant_; }
    const Floorplan &floorplan() const { return floorplan_; }

    /** IPC over the measurement window (since resetMeasurement). */
    double measuredIpc() const { return core_.stats().ipc(); }

    /**
     * Performance over the measurement window normalized to nominal
     * clock periods of wall time: committed / (wall_seconds * f0).
     * Identical to measuredIpc() unless frequency scaling engaged —
     * with a scaled clock each simulated cycle covers more wall time,
     * which this metric charges against the run.
     */
    double measuredPerformance() const;

    /** Current clock scale in (0, 1]; 1 = nominal frequency. */
    double clockScale() const { return freq_scale_; }

  private:
    SimConfig cfg_;
    std::unique_ptr<InstructionStream> workload_;
    MemoryHierarchy memory_;
    Core core_;
    PowerModel power_;
    Floorplan floorplan_;
    SimplifiedRCModel thermal_;
    FopdtPlant plant_;
    std::unique_ptr<DtmManager> dtm_;

    bool fetch_allowed_ = true;
    Cycle now_ = 0;
    PowerVector last_power_;
    SimulatorStats stats_;

    // Voltage/frequency scaling state.
    double freq_scale_ = 1.0;
    Cycle resync_until_ = 0;
    double measured_wall_seconds_ = 0.0;

    Probe probe_;
    Cycle probe_interval_ = 0;
};

} // namespace thermctl

#endif // THERMCTL_SIM_SIMULATOR_HH
