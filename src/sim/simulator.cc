#include "sim/simulator.hh"

#include <algorithm>

#include "check/invariants.hh"
#include "common/logging.hh"

namespace thermctl
{

std::unique_ptr<InstructionStream>
makeInstructionStream(const SimConfig &cfg, std::size_t core_index)
{
    if (!cfg.trace_path.empty()) {
        return std::make_unique<TraceReader>(cfg.trace_path,
                                             cfg.trace_loop);
    }
    // Offset the workload seed per core so the cores of a chip run
    // decorrelated instances of the same profile (identical seeds would
    // phase-lock every core's activity and defeat the budget-contention
    // scenarios).
    WorkloadProfile profile = cfg.workload;
    profile.seed += core_index;
    return std::make_unique<SyntheticWorkload>(profile);
}

Simulator::Simulator(const SimConfig &cfg)
    : cfg_(cfg),
      workload_(makeInstructionStream(cfg)),
      memory_(cfg.memory),
      core_(cfg.cpu, *workload_, memory_),
      power_(cfg.power, cfg.cpu, cfg.memory),
      floorplan_(cfg.floorplan),
      thermal_(floorplan_, cfg.thermal, cfg.power.tech.cycleSeconds()),
      plant_(deriveDtmPlant(floorplan_, power_, cfg.dtm,
                            cfg.power.tech.cycleSeconds()))
{
    dtm_ = std::make_unique<DtmManager>(
        cfg.dtm, cfg.thermal,
        makeDtmPolicy(cfg.policy, plant_, cfg.dtm,
                      cfg.power.tech.cycleSeconds()));
}

void
Simulator::tick()
{
    // Apply the standing DTM command. A frequency change stalls the
    // pipeline while the clock resynchronizes (paper Section 2.1).
    const DtmCommand &cmd = dtm_->command();
    if (cmd.freq_scale != freq_scale_) {
        freq_scale_ = cmd.freq_scale;
        resync_until_ = now_ + cfg_.dtm.resync_cycles;
    }
    core_.setFetchWidthLimit(cmd.width_limit);
    core_.setSpeculationLimit(cmd.spec_limit);
    core_.setFetchEnabled(fetch_allowed_ && now_ >= resync_until_);
    core_.tick();

    last_power_ = power_.cyclePower(core_.activity());
    double dt_mult = 1.0;
    double v_ratio = 1.0;
    if (freq_scale_ < 1.0) {
        // Scaled clock: less switching energy per second (s * (V/V0)^2)
        // and a longer wall-clock duration per simulated cycle (1/s).
        const double alpha = cfg_.power.voltage_scaling_alpha;
        v_ratio = alpha + (1.0 - alpha) * freq_scale_;
        const double p_scale = freq_scale_ * v_ratio * v_ratio;
        for (double &w : last_power_.value)
            w *= p_scale;
        dt_mult = 1.0 / freq_scale_;
    }
    if (cfg_.power.leakage_enabled) {
        // Static power: temperature-dependent, frequency-independent,
        // scaling with the supply voltage (~V^2 in this model).
        const PowerVector leak =
            power_.leakagePower(thermal_.temperatures().value);
        for (std::size_t i = 0; i < kNumStructures; ++i)
            last_power_.value[i] += leak.value[i] * v_ratio * v_ratio;
    }
    THERMCTL_INVARIANT(check::verifyFinite(last_power_,
                                           "Simulator::tick"));
    if (dt_mult != 1.0)
        thermal_.stepScaled(last_power_, dt_mult);
    else
        thermal_.step(last_power_);
    measured_wall_seconds_ +=
        dt_mult * cfg_.power.tech.cycleSeconds();

    fetch_allowed_ = dtm_->tick(thermal_.temperatures(), now_);

    // ------------------------------------------------------- metrics
    ++stats_.cycles;
    const auto &temps = thermal_.temperatures();
    const Celsius t_emerg = cfg_.thermal.t_emergency;
    const Celsius t_stress = cfg_.thermal.stressLevel();
    for (std::size_t i = 0; i < kNumStructures; ++i) {
        stats_.power_sum.value[i] += last_power_.value[i];
        auto &s = stats_.structures[i];
        const Celsius t = temps.value[i];
        s.temp_sum += t;
        s.temp_max = std::max(s.temp_max, t);
        if (t > t_emerg)
            ++s.emergency_cycles;
        if (t > t_stress)
            ++s.stress_cycles;
    }

    ++now_;
    if (probe_interval_ && now_ % probe_interval_ == 0)
        probe_(*this, now_);
}

void
Simulator::run(std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i)
        tick();
}

void
Simulator::warmUp(std::uint64_t cycles)
{
    const std::uint64_t half = cycles / 2;
    run(half);

    // Jump the thermal state to the steady state of the average power
    // observed so far (skipping the multi-RC heating transient), then
    // let the loop settle for the second half.
    PowerVector avg;
    for (std::size_t i = 0; i < kNumStructures; ++i) {
        avg.value[i] = stats_.cycles
            ? stats_.power_sum.value[i]
                  / static_cast<double>(stats_.cycles)
            : 0.0;
    }
    thermal_.warmStart(avg);

    run(cycles - half);
    resetMeasurement();
}

void
Simulator::resetMeasurement()
{
    stats_ = SimulatorStats{};
    core_.resetStats();
    dtm_->resetStats();
    measured_wall_seconds_ = 0.0;
}

double
Simulator::measuredPerformance() const
{
    if (measured_wall_seconds_ <= 0.0)
        return 0.0;
    return static_cast<double>(core_.stats().committed)
        / (measured_wall_seconds_ * cfg_.power.tech.freq_hz);
}

void
Simulator::setDtmPolicy(std::unique_ptr<DtmPolicy> policy)
{
    dtm_ = std::make_unique<DtmManager>(cfg_.dtm, cfg_.thermal,
                                        std::move(policy));
}

void
Simulator::setProbe(Probe probe, Cycle interval)
{
    probe_ = std::move(probe);
    probe_interval_ = probe_ ? interval : 0;
}

} // namespace thermctl
