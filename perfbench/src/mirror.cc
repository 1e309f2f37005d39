#include "mirror.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "control/tuning.hh"
#include "measure.hh"
#include "multicore/budget_coordinator.hh"
#include "multicore/chip_model.hh"
#include "multicore/core_controller.hh"
#include "multicore/multicore_sim.hh"
#include "sim/simulator.hh"

namespace perfbench
{

using namespace thermctl;

void
LayerTimes::add(const LayerTimes &o)
{
    cycles += o.cycles;
    next_calls += o.next_calls;
    next_ns += o.next_ns;
    core_ns += o.core_ns;
    power_ns += o.power_ns;
    thermal_ns += o.thermal_ns;
    dtm_ns += o.dtm_ns;
    tick_ns += o.tick_ns;
    mc_core_cycles += o.mc_core_cycles;
    mc_run_ns += o.mc_run_ns;
    chip_steps += o.chip_steps;
    chip_step_ns += o.chip_step_ns;
    controller_updates += o.controller_updates;
    controller_ns += o.controller_ns;
    budget_splits += o.budget_splits;
    budget_ns += o.budget_ns;
    raw_ipc_sum += o.raw_ipc_sum;
    fetched += o.fetched;
    wrong_path_ops += o.wrong_path_ops;
    l1d_accesses += o.l1d_accesses;
    l1d_misses += o.l1d_misses;
    l2_accesses += o.l2_accesses;
    l2_misses += o.l2_misses;
    duty_sum += o.duty_sum;
    points += o.points;
}

namespace
{

/** Times every call into the wrapped instruction source. */
class TimedStream final : public InstructionStream
{
  public:
    TimedStream(std::unique_ptr<InstructionStream> inner, LayerTimes &t)
        : inner_(std::move(inner)), t_(t)
    {
    }

    MicroOp
    next() override
    {
        const auto t0 = Clock::now();
        MicroOp op = inner_->next();
        t_.next_ns += nanosBetween(t0, Clock::now());
        ++t_.next_calls;
        return op;
    }

    MicroOp
    synthesizeAt(Addr pc) override
    {
        const auto t0 = Clock::now();
        MicroOp op = inner_->synthesizeAt(pc);
        t_.next_ns += nanosBetween(t0, Clock::now());
        ++t_.next_calls;
        return op;
    }

    bool done() const override { return inner_->done(); }

  private:
    std::unique_ptr<InstructionStream> inner_;
    LayerTimes &t_;
};

std::unique_ptr<InstructionStream>
makeStream(const SimConfig &cfg)
{
    if (!cfg.trace_path.empty()) {
        return std::make_unique<TraceReader>(cfg.trace_path,
                                             cfg.trace_loop);
    }
    return std::make_unique<SyntheticWorkload>(cfg.workload);
}

/**
 * Simulator's members and loop, built from the same public pieces in
 * the same order. Keep in step with sim/simulator.cc: the traced run
 * refuses to report when the two stop agreeing byte for byte.
 */
class MirrorSim
{
  public:
    MirrorSim(const SimConfig &cfg, LayerTimes &t)
        : cfg_(cfg), t_(t),
          workload_(std::make_unique<TimedStream>(makeStream(cfg), t)),
          memory_(cfg.memory), core_(cfg.cpu, *workload_, memory_),
          power_(cfg.power, cfg.cpu, cfg.memory),
          floorplan_(cfg.floorplan),
          thermal_(floorplan_, cfg.thermal,
                   cfg.power.tech.cycleSeconds()),
          plant_(deriveDtmPlant(floorplan_, power_, cfg.dtm,
                                cfg.power.tech.cycleSeconds())),
          dtm_(cfg.dtm, cfg.thermal,
               makeDtmPolicy(cfg.policy, plant_, cfg.dtm,
                             cfg.power.tech.cycleSeconds()))
    {
    }

    void
    run(std::uint64_t n)
    {
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < n; ++i)
            t0 = tick(t0);
    }

    void
    warmUp(std::uint64_t cycles)
    {
        const std::uint64_t half = cycles / 2;
        run(half);
        PowerVector avg;
        for (std::size_t i = 0; i < kNumStructures; ++i) {
            avg.value[i] = stats_.cycles
                ? stats_.power_sum.value[i]
                      / static_cast<double>(stats_.cycles)
                : 0.0;
        }
        thermal_.warmStart(avg);
        run(cycles - half);
        stats_ = SimulatorStats{};
        core_.resetStats();
        dtm_.resetStats();
        measured_wall_seconds_ = 0.0;
    }

    RunResult
    result() const
    {
        RunResult r;
        r.benchmark = cfg_.workload.name;
        r.policy = dtmPolicyKindName(cfg_.policy.kind);
        r.category = cfg_.workload.category;
        r.ipc = measured_wall_seconds_ > 0.0
            ? static_cast<double>(core_.stats().committed)
                / (measured_wall_seconds_ * cfg_.power.tech.freq_hz)
            : 0.0;
        r.raw_ipc = core_.stats().ipc();
        r.avg_power = stats_.avgPower();
        const DtmStats &ds = dtm_.stats();
        r.emergency_fraction = ds.emergencyFraction();
        r.stress_fraction = ds.stressFraction();
        r.max_temperature = ds.max_temperature;
        r.mean_duty = ds.samples
            ? ds.duty_sum / static_cast<double>(ds.samples)
            : 1.0;
        for (std::size_t i = 0; i < kNumStructures; ++i) {
            const auto id = static_cast<StructureId>(i);
            auto &det = r.structures[i];
            const auto &s = stats_.structures[i];
            det.avg_temp = stats_.avgTemperature(id);
            det.max_temp = s.temp_max;
            det.avg_power = stats_.avgStructurePower(id);
            const double cycles = static_cast<double>(stats_.cycles);
            det.emergency_fraction = cycles
                ? static_cast<double>(s.emergency_cycles) / cycles
                : 0.0;
            det.stress_fraction = cycles
                ? static_cast<double>(s.stress_cycles) / cycles
                : 0.0;
        }
        return r;
    }

    void
    recordCounts() const
    {
        const CpuStats &cs = core_.stats();
        t_.fetched += cs.fetched;
        t_.wrong_path_ops += cs.wrong_path_ops;
        const CacheStats &l1d = memory_.l1d().stats();
        const CacheStats &l2 = memory_.l2().stats();
        t_.l1d_accesses += l1d.accesses();
        t_.l1d_misses += l1d.misses();
        t_.l2_accesses += l2.accesses();
        t_.l2_misses += l2.misses();
    }

  private:
    /** One cycle of Simulator::tick; returns the instant it ended. */
    Clock::time_point
    tick(Clock::time_point start)
    {
        const DtmCommand &cmd = dtm_.command();
        if (cmd.freq_scale != freq_scale_) {
            freq_scale_ = cmd.freq_scale;
            resync_until_ = now_ + cfg_.dtm.resync_cycles;
        }
        core_.setFetchWidthLimit(cmd.width_limit);
        core_.setSpeculationLimit(cmd.spec_limit);
        core_.setFetchEnabled(fetch_allowed_ && now_ >= resync_until_);
        const auto c0 = Clock::now();
        core_.tick();
        const auto c1 = Clock::now();

        last_power_ = power_.cyclePower(core_.activity());
        double dt_mult = 1.0;
        double v_ratio = 1.0;
        if (freq_scale_ < 1.0) {
            const double alpha = cfg_.power.voltage_scaling_alpha;
            v_ratio = alpha + (1.0 - alpha) * freq_scale_;
            const double p_scale = freq_scale_ * v_ratio * v_ratio;
            for (double &w : last_power_.value)
                w *= p_scale;
            dt_mult = 1.0 / freq_scale_;
        }
        if (cfg_.power.leakage_enabled) {
            const PowerVector leak =
                power_.leakagePower(thermal_.temperatures().value);
            for (std::size_t i = 0; i < kNumStructures; ++i)
                last_power_.value[i] += leak.value[i] * v_ratio * v_ratio;
        }
        const auto c2 = Clock::now();
        if (dt_mult != 1.0)
            thermal_.stepScaled(last_power_, dt_mult);
        else
            thermal_.step(last_power_);
        const auto c3 = Clock::now();
        measured_wall_seconds_ +=
            dt_mult * cfg_.power.tech.cycleSeconds();

        fetch_allowed_ = dtm_.tick(thermal_.temperatures(), now_);
        const auto c4 = Clock::now();

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
        const auto end = Clock::now();

        t_.core_ns += nanosBetween(c0, c1);
        t_.power_ns += nanosBetween(c1, c2);
        t_.thermal_ns += nanosBetween(c2, c3);
        t_.dtm_ns += nanosBetween(c3, c4);
        t_.tick_ns += nanosBetween(start, end);
        ++t_.cycles;
        return end;
    }

    SimConfig cfg_;
    LayerTimes &t_;
    std::unique_ptr<InstructionStream> workload_;
    MemoryHierarchy memory_;
    Core core_;
    PowerModel power_;
    Floorplan floorplan_;
    SimplifiedRCModel thermal_;
    FopdtPlant plant_;
    DtmManager dtm_;

    bool fetch_allowed_ = true;
    Cycle now_ = 0;
    PowerVector last_power_;
    SimulatorStats stats_;
    double freq_scale_ = 1.0;
    Cycle resync_until_ = 0;
    double measured_wall_seconds_ = 0.0;
};

/** The per-core controller the multicore engine builds for `cfg`. */
std::unique_ptr<multicore::CoreController>
makeController(const SimConfig &cfg, const FopdtPlant &plant)
{
    const DtmPolicySettings &s = cfg.policy;
    if (s.kind == DtmPolicyKind::AdjIntegral) {
        multicore::AdjustableIntegralConfig ac;
        ac.setpoint = s.ct_setpoint;
        ac.initial_sensitivity = std::clamp(
            plant.gain, ac.sensitivity_min, ac.sensitivity_max);
        return std::make_unique<multicore::AdjustableIntegralController>(
            ac);
    }
    PidConfig pc = tuneLoopShaping(ControllerKind::PID, plant, s.shaping);
    pc.setpoint = s.ct_setpoint;
    pc.dt = static_cast<double>(cfg.dtm.sample_interval)
        * cfg.power.tech.cycleSeconds();
    pc.out_min = 0.0;
    pc.out_max = 1.0;
    pc.anti_windup = AntiWindup::Conditional;
    pc.integral_init = pc.out_max;
    return std::make_unique<multicore::FixedPidCoreController>(pc);
}

/** Keeps the timed controller and split results observable. */
volatile double g_sink = 0.0;

/** Control samples timed per point on the chip-sized inputs. */
constexpr std::uint64_t kChipSamples = 400;

/**
 * Time the sample-window layers on inputs of the point's size: one
 * ChipModel::step, one CoreController::update per core and one
 * BudgetCoordinator::split per sample, fed the point's own per-core
 * power and the resulting hot-spot temperatures.
 */
void
timeChipLayers(const SimConfig &cfg, const RunResult &r, LayerTimes &t)
{
    const std::size_t n = cfg.multicore.num_cores;
    const Floorplan floorplan(cfg.floorplan);
    const PowerModel power(cfg.power, cfg.cpu, cfg.memory);
    const Seconds dt = cfg.power.tech.cycleSeconds();
    multicore::ChipModel chip(floorplan, cfg.thermal, dt, cfg.multicore);
    const FopdtPlant plant = deriveDtmPlant(floorplan, power, cfg.dtm, dt);

    std::vector<PowerVector> core_power(n);
    std::vector<Watts> demand(n);
    for (std::size_t c = 0; c < n; ++c) {
        double total = 0.0;
        for (std::size_t j = 0; j < kNumStructures; ++j) {
            core_power[c].value[j] =
                r.structures[j].avg_power / static_cast<double>(n);
            total += core_power[c].value[j];
        }
        demand[c] = Watts(total);
    }
    chip.warmStart(core_power);

    std::vector<std::unique_ptr<multicore::CoreController>> ctrl;
    for (std::size_t c = 0; c < n; ++c)
        ctrl.push_back(makeController(cfg, plant));
    const multicore::BudgetCoordinator budget(
        cfg.multicore.chip_budget, cfg.multicore.budget_policy,
        cfg.thermal.t_emergency);

    std::vector<Celsius> hottest(n);
    double sink = 0.0; // keeps the controller outputs observable
    for (std::uint64_t k = 0; k < kChipSamples; ++k) {
        const auto s0 = Clock::now();
        chip.step(core_power);
        const auto s1 = Clock::now();
        for (std::size_t c = 0; c < n; ++c)
            hottest[c] = chip.temperatures(c).maxHotspot();
        const auto s2 = Clock::now();
        for (std::size_t c = 0; c < n; ++c)
            sink += ctrl[c]->update(hottest[c]);
        const auto s3 = Clock::now();
        const std::vector<Watts> split = budget.split(demand, hottest);
        const auto s4 = Clock::now();
        sink += split.front().value();
        t.chip_step_ns += nanosBetween(s0, s1);
        t.controller_ns += nanosBetween(s2, s3);
        t.budget_ns += nanosBetween(s3, s4);
    }
    t.chip_steps += kChipSamples;
    t.controller_updates += kChipSamples * n;
    t.budget_splits += kChipSamples;
    g_sink = sink;
}

} // namespace

RunResult
runTimedSingleCore(const SimConfig &cfg, const RunProtocol &proto,
                   LayerTimes &times)
{
    MirrorSim sim(cfg, times);
    sim.warmUp(proto.warmup_cycles);
    sim.run(proto.measure_cycles);
    sim.recordCounts();
    RunResult r = sim.result();
    times.raw_ipc_sum += r.raw_ipc;
    times.duty_sum += r.mean_duty;
    ++times.points;
    return r;
}

RunResult
runTimedMulticore(const SimConfig &cfg, const RunProtocol &proto,
                  LayerTimes &times)
{
    const auto t0 = Clock::now();
    RunResult r = multicore::runMulticoreOne(cfg, proto);
    times.mc_run_ns += nanosBetween(t0, Clock::now());
    times.mc_core_cycles += (proto.warmup_cycles + proto.measure_cycles)
        * cfg.multicore.num_cores;
    times.raw_ipc_sum += r.raw_ipc;
    times.duty_sum += r.mean_duty;
    ++times.points;
    timeChipLayers(cfg, r, times);
    return r;
}

namespace
{

/**
 * Host ns per call with the timer's own cost taken off. A timed interval
 * holds about one steady-clock read beyond the work inside it (half of
 * the read that opens it, half of the one that closes it, plus any read
 * nested inside), so `reads` of them come off `ns` before dividing.
 */
double
perCall(std::int64_t ns, std::uint64_t reads, std::uint64_t calls,
        double clock_ns)
{
    return calls ? (static_cast<double>(ns)
                    - clock_ns * static_cast<double>(reads))
            / static_cast<double>(calls)
                 : 0.0;
}

double
ratio(std::uint64_t a, std::uint64_t b)
{
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

/** Measure the cost of one timer read and report it. */
double
clockFloor(Report &report)
{
    const double clock_ns = clockReadNs();
    report.set("trace.clock_read_ns", clock_ns, "ns", kClockReadBatches);
    return clock_ns;
}

void
reportCounts(const LayerTimes &t, Report &report)
{
    const double points = static_cast<double>(t.points);
    report.set("cpu.ipc", t.points ? t.raw_ipc_sum / points : 0.0,
               "insn/cycle", t.points);
    report.set("dtm.mean_duty", t.points ? t.duty_sum / points : 0.0,
               "share", t.points);
}

} // namespace

void
reportSingleCoreLayers(const LayerTimes &t, Report &report)
{
    const double r = clockFloor(report);
    const std::uint64_t c = t.cycles;
    // Reads nested inside the mirrored tick: 5 of its own plus 2 per
    // proxy call, all inside the tick interval, the proxy's 2 inside
    // Core::tick's. That leaves 2 reads in the glue and 1 in each layer.
    report.set("workload.next_ns", perCall(t.next_ns, t.next_calls,
                                           t.next_calls, r),
               "ns", t.next_calls);
    report.set("cpu.tick_self_ns",
               perCall(t.core_ns - t.next_ns, t.next_calls + c, c, r), "ns",
               c);
    report.set("power.cycle_ns", perCall(t.power_ns, c, c, r), "ns", c);
    report.set("thermal.step_ns", perCall(t.thermal_ns, c, c, r), "ns", c);
    report.set("dtm.tick_ns", perCall(t.dtm_ns, c, c, r), "ns", c);
    report.set("sim.tick_self_ns",
               perCall(t.tick_ns - t.core_ns - t.power_ns - t.thermal_ns
                           - t.dtm_ns,
                       2 * c, c, r),
               "ns", c);
    report.set("cpu.wrong_path_share", ratio(t.wrong_path_ops, t.fetched),
               "share", t.points);
    report.set("cache.l1d_miss_rate", ratio(t.l1d_misses, t.l1d_accesses),
               "share", t.points);
    report.set("cache.l2_miss_rate", ratio(t.l2_misses, t.l2_accesses),
               "share", t.points);
    reportCounts(t, report);
}

void
reportMulticoreLayers(const LayerTimes &t, Report &report)
{
    const double r = clockFloor(report);
    report.set("multicore.core_cycle_ns",
               perCall(t.mc_run_ns, t.points, t.mc_core_cycles, r), "ns",
               t.mc_core_cycles);
    report.set("thermal.chip_step_ns",
               perCall(t.chip_step_ns, t.chip_steps, t.chip_steps, r), "ns",
               t.chip_steps);
    // One timed interval per sample covers the updates of every core.
    report.set("multicore.controller_update_ns",
               perCall(t.controller_ns, t.chip_steps, t.controller_updates,
                       r),
               "ns", t.controller_updates);
    report.set("multicore.budget_split_ns",
               perCall(t.budget_ns, t.budget_splits, t.budget_splits, r),
               "ns", t.budget_splits);
    reportCounts(t, report);
}

} // namespace perfbench
