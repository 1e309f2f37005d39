/**
 * @file
 * Top-level simulation configuration: the paper's Table 2 machine, the
 * power/thermal environment, and the DTM policy selection with the
 * reconstructed threshold constants (see DESIGN.md Section 4).
 */

#ifndef THERMCTL_SIM_CONFIG_HH
#define THERMCTL_SIM_CONFIG_HH

#include "cache/hierarchy.hh"
#include "control/tuning.hh"
#include "cpu/config.hh"
#include "dtm/manager.hh"
#include "power/model.hh"
#include "thermal/floorplan.hh"
#include "thermal/rc_model.hh"
#include "workload/profile.hh"

namespace thermctl
{

/** The DTM techniques evaluated by the paper. */
enum class DtmPolicyKind
{
    None,    ///< baseline, no thermal management
    Toggle1, ///< fixed response: fetch fully off while engaged
    Toggle2, ///< fixed response: fetch every other cycle while engaged
    Manual,  ///< hand-built proportional controller "M"
    P,       ///< control-theoretic proportional
    PI,      ///< control-theoretic proportional-integral
    PID,     ///< control-theoretic PID
    // The other Brooks & Martonosi mechanisms the paper discusses (and
    // dismisses as inferior) in Section 2.1:
    Throttle,    ///< reduced fetch width while engaged
    SpecControl, ///< bounded unresolved branches while engaged
    VfScale,     ///< global voltage/frequency scaling while engaged
    Hierarchical, ///< PID toggling + V/f scaling backup near emergency
    // Multicore policies (src/multicore): per-core controllers driving
    // the DVFS ladder, coordinated by the chip-level budget supervisor.
    PerCorePid,  ///< per-core fixed-gain PID on DVFS (ControlPULP-style)
    AdjIntegral, ///< per-core adjustable-gain integral (Rao et al.)
};

/** @return printable policy name ("toggle1", "PID", ...). */
const char *dtmPolicyKindName(DtmPolicyKind kind);

/** All policies in the order the paper discusses them. */
inline constexpr std::array<DtmPolicyKind, 7> kAllPolicies = {
    DtmPolicyKind::None, DtmPolicyKind::Toggle1, DtmPolicyKind::Toggle2,
    DtmPolicyKind::Manual, DtmPolicyKind::P, DtmPolicyKind::PI,
    DtmPolicyKind::PID,
};

/** Thresholds and parameters for the DTM policies (paper Section 5.3). */
struct DtmPolicySettings
{
    DtmPolicyKind kind = DtmPolicyKind::None;

    /** Trigger for toggle1/toggle2/M: 1.0 below the emergency level. */
    Celsius nonct_trigger = 110.8;

    /** Minimum engagement time of the fixed policies (set empirically). */
    Cycle policy_delay = 30000;

    // P controller: setpoint 111.2, toggling engages above 110.8.
    Celsius p_setpoint = 111.2;
    Celsius p_range_low = 110.8;

    // PI/PID: setpoint 111.6 -> trigger within 0.2 of emergency.
    Celsius ct_setpoint = 111.6;
    Celsius ct_range_low = 111.4;

    /** Loop-shaping spec for the CT controllers. */
    LoopShapingSpec shaping{};

    // ---- Section 2.1 auxiliary mechanisms (inferior baselines) ----
    /** Fetch width while throttling is engaged. */
    std::uint32_t throttle_width = 2;

    /** Unresolved-branch bound while speculation control is engaged. */
    std::uint32_t spec_max_branches = 2;

    /** Clock scale while V/f scaling is engaged. */
    double vf_scale = 0.7;

    /**
     * Policy delay for V/f scaling: long, because every transition
     * costs a resynchronization stall (paper: "it must be left in place
     * for a significant policy delay").
     */
    Cycle vf_policy_delay = 200000;

    /**
     * Backup trigger of the hierarchical policy: scaling engages only
     * when temperature gets "truly close to emergency" (paper §2.1).
     */
    Celsius hierarchy_backup_trigger = 111.75;

    // ---- Failsafe wrapper (sensor-fault resilience; dtm/failsafe.hh) --
    /** Wrap the selected policy in a FailsafePolicy. */
    bool failsafe = false;

    /** Consecutive bit-identical samples before declaring stuck. */
    std::uint64_t failsafe_stuck_samples = 8;

    /** Plausible sensed-temperature range; outside it trips fallback. */
    Celsius failsafe_min_plausible = 20.0;
    Celsius failsafe_max_plausible = 150.0;
};

/** How the budget coordinator splits the chip budget across cores. */
enum class BudgetPolicy
{
    Uniform,            ///< equal share per core
    DemandProportional, ///< shares follow recent per-core power demand
    ThermalHeadroom,    ///< shares follow distance to the emergency level
};

/** @return printable budget-policy name ("uniform", ...). */
const char *budgetPolicyName(BudgetPolicy policy);

/** Hard cap on cores per chip (bounds protocol decode allocations). */
inline constexpr std::uint32_t kMaxCores = 64;

/**
 * Multicore chip configuration (src/multicore). The defaults describe a
 * single-core chip, which runs through the classic single-core engine;
 * num_cores > 1 (or a multicore policy kind) selects the multicore
 * engine.
 */
struct MulticoreConfig
{
    /** Cores on the chip, each a full paper floorplan. 1..kMaxCores. */
    std::uint32_t num_cores = 1;

    /**
     * Lateral thermal resistance (K/W) between each pair of facing
     * boundary blocks of adjacent cores. <= 0 disables inter-core
     * coupling (cores interact only through the shared heatsink).
     */
    KelvinPerWatt coupling_resistance = 4.0;

    /**
     * Chip-level power budget (Watts) split across cores each control
     * epoch. <= 0 disables budgeting (every core runs uncapped).
     */
    Watts chip_budget = 0.0;

    BudgetPolicy budget_policy = BudgetPolicy::Uniform;

    /** Budget epoch length, in controller samples (>= 1). */
    std::uint32_t budget_epoch_samples = 10;

    /** DVFS ladder levels above the floor (level==levels -> nominal). */
    std::uint32_t dvfs_levels = 7;

    /** Clock scale at ladder level 0 (the slowest operating point). */
    double dvfs_min_scale = 0.3;
};

/** Complete configuration of one simulation run. */
struct SimConfig
{
    WorkloadProfile workload{};

    /**
     * When non-empty, drive the core from this recorded micro-op trace
     * (see workload/trace.hh) instead of synthesizing from `workload`.
     * The trace loops by default so long thermal runs can replay a
     * short capture.
     */
    std::string trace_path{};
    bool trace_loop = true;
    CpuConfig cpu{};
    MemoryHierarchyConfig memory{};
    PowerConfig power{};
    FloorplanConfig floorplan{};
    ThermalConfig thermal{};
    DtmConfig dtm{};
    DtmPolicySettings policy{};
    MulticoreConfig multicore{};
};

} // namespace thermctl

#endif // THERMCTL_SIM_CONFIG_HH
