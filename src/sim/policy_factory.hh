/**
 * @file
 * Builds DTM policy objects from DtmPolicySettings, deriving the CT
 * controller gains from the thermal plant exactly as the paper does:
 * FOPDT plant with the longest hot-spot time constant, steady-state gain
 * from the thermal R times the actuator power swing, and dead time of
 * half the sampling period.
 */

#ifndef THERMCTL_SIM_POLICY_FACTORY_HH
#define THERMCTL_SIM_POLICY_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "control/plant.hh"
#include "dtm/policy.hh"
#include "power/model.hh"
#include "sim/config.hh"
#include "thermal/floorplan.hh"

namespace thermctl
{

/** Every policy name accepted by parseDtmPolicyKind (CLI/wire set). */
std::vector<std::string> dtmPolicyNames();

/**
 * Inverse of dtmPolicyKindName for the user-selectable policies.
 * @return false when `name` is not a known policy name.
 */
bool parseDtmPolicyKind(const std::string &name, DtmPolicyKind &out);

/**
 * Inverse of budgetPolicyName.
 * @return false when `name` is not a known budget-policy name.
 */
bool parseBudgetPolicy(const std::string &name, BudgetPolicy &out);

/**
 * @return true for the policy kinds that only run inside the multicore
 * engine (PerCorePid, AdjIntegral). makeDtmPolicy panics on them; the
 * experiment runner dispatches such configs to the multicore engine.
 */
bool isMulticorePolicy(DtmPolicyKind kind);

/**
 * Derive the FOPDT plant seen by the DTM controller.
 *
 * tau: the longest RC among the hot-spot blocks (the paper: "we used the
 * longest time constant of the various blocks under study").
 * gain: max over hot-spot blocks of R * (half the block's peak power) —
 * the temperature swing a full-range duty change can command.
 * dead time: half the sampling period (paper Section 3.2).
 */
FopdtPlant deriveDtmPlant(const Floorplan &floorplan,
                          const PowerModel &power, const DtmConfig &dtm,
                          Seconds cycle_seconds);

/** Construct the configured policy (gains tuned for CT kinds). */
std::unique_ptr<DtmPolicy> makeDtmPolicy(const DtmPolicySettings &settings,
                                         const FopdtPlant &plant,
                                         const DtmConfig &dtm,
                                         Seconds cycle_seconds);

} // namespace thermctl

#endif // THERMCTL_SIM_POLICY_FACTORY_HH
