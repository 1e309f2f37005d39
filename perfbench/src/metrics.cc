#include "metrics.hh"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace perfbench
{

namespace
{

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
printReport(const Report &report, std::ostream &out)
{
    for (const std::string &note : report.notes)
        out << report.workload << "/check FAILED: " << note << "\n";
    for (const auto &[name, m] : report.metrics) {
        out << report.workload << "/" << name << " " << number(m.value)
            << " " << m.unit << " (n=" << m.samples << ")\n";
    }
    const double error_rate = report.attempted
        ? static_cast<double>(report.failed)
            / static_cast<double>(report.attempted)
        : 0.0;
    out << report.workload << "/error_rate " << number(error_rate)
        << " share (n=" << report.attempted << ")\n";

    // Last line: the machine-readable result.
    std::ostringstream json;
    json << "{\"correct\": " << (report.correct ? "true" : "false")
         << ", \"attempted\": " << report.attempted
         << ", \"failed\": " << report.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : report.metrics) {
        json << (first ? "" : ", ") << "\"" << name
             << "\": {\"value\": " << number(m.value) << ", \"unit\": \""
             << m.unit << "\"}";
        first = false;
    }
    json << "}}";
    out << json.str() << std::endl;
}

} // namespace perfbench
