/**
 * @file
 * The report printer. The driver prints every metric it measured;
 * run.py keeps the ones BENCHMARK.json declares.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <iosfwd>
#include "measure.hh"

namespace perfbench
{

/**
 * Print every metric as `<workload>/<metric> value unit (n=samples)`,
 * then `<workload>/error_rate`, then one JSON line holding every
 * metric with its value and unit.
 */
void printReport(const Report &report, std::ostream &out);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
